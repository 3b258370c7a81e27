package server

import (
	"os"
	"reflect"
	"testing"
)

// FuzzLoadAppends feeds arbitrary bytes to the append-journal decoder, the
// one that reads whatever a crash left on disk. Any bytes must give either
// an error or records, never a panic. A successful load must leave the
// journal so that a second load returns the same records (a torn tail
// truncated, a missing final newline repaired), and one appendBatch after
// it must load as exactly one more record: the one appended.
func FuzzLoadAppends(f *testing.F) {
	good := `{"rows":[{"dims":["x"],"measure":1}],"mine":{"k":2}}`
	f.Add([]byte(""))
	f.Add([]byte(good + "\n"))
	f.Add([]byte(good + "\n" + good))              // the final newline missing
	f.Add([]byte(good + "\n" + `{"rows":[{"dims`)) // a torn tail
	f.Add([]byte("{garbage\n" + good + "\n"))      // corruption before the end
	f.Add([]byte("\n\n" + good + "\n \n" + good))
	// One directory for the whole run: a worker calls the target
	// sequentially, and each call rewrites the journal from scratch.
	sn, err := newSnapshotter(f.TempDir(), false)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, journal []byte) {
		if err := os.WriteFile(sn.appendsPath("s"), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		first, err := sn.loadAppends("s")
		if err != nil {
			return
		}
		again, err := sn.loadAppends("s")
		if err != nil {
			t.Fatalf("second load failed after a first one succeeded: %v", err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("second load returned %+v, first %+v", again, first)
		}
		rec := appendRecord{Rows: []RowJSON{{Dims: []string{"fuzz"}, Measure: 2}}, Mine: MineRequest{K: 3}}
		if err := sn.appendBatch("s", rec); err != nil {
			t.Fatal(err)
		}
		after, err := sn.loadAppends("s")
		if err != nil {
			t.Fatalf("load after one append failed: %v", err)
		}
		if len(after) != len(first)+1 || !reflect.DeepEqual(after[len(first)], rec) {
			t.Fatalf("load after one append returned %+v, want %+v then %+v", after, first, rec)
		}
		for i := range first {
			if !reflect.DeepEqual(after[i], first[i]) {
				t.Fatalf("record %d changed across an append: %+v, was %+v", i, after[i], first[i])
			}
		}
	})
}
