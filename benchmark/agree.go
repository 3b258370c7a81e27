package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
)

func readResults(path string) (*results, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func agreeFiles(pathA, pathB string) ([]string, error) {
	a, err := readResults(pathA)
	if err != nil {
		return nil, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return nil, err
	}
	return agree(a, b), nil
}

// agree lists every reason two results files do not agree: runs that are
// not comparable at all (host, seed, window or frozen sizes differ, or an
// op failed), and end-to-end metrics further apart than the metric's bound.
// Neither file is "the parent", so the distance is taken relative to the
// smaller magnitude — the stricter reading.
func agree(a, b *results) []string {
	var problems []string
	if a.Host != b.Host {
		problems = append(problems, fmt.Sprintf("host differs: %+v vs %+v", a.Host, b.Host))
	}
	if a.Seed != b.Seed {
		problems = append(problems, fmt.Sprintf("seed differs: %d vs %d", a.Seed, b.Seed))
	}
	if a.Seconds != b.Seconds || a.Smoke != b.Smoke || !reflect.DeepEqual(a.Sizes, b.Sizes) {
		problems = append(problems, "window or frozen sizes differ")
	}
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil && wb == nil {
			continue
		}
		if wa == nil || wb == nil || wa.Traced != wb.Traced {
			problems = append(problems, fmt.Sprintf("%s: not run the same way in both files", name))
			continue
		}
		if wa.Traced {
			continue // per-layer metrics carry no bound
		}
		if wa.ScheduleDigest != wb.ScheduleDigest {
			problems = append(problems, fmt.Sprintf("%s: schedule_digest differs: %s vs %s", name, wa.ScheduleDigest, wb.ScheduleDigest))
		}
		if wa.Failed+wb.Failed > 0 {
			problems = append(problems, fmt.Sprintf("%s: failed ops: %d vs %d", name, wa.Failed, wb.Failed))
		}
		for _, metric := range sortedKeys(a.Bounds) {
			va, vb := wa.Metrics[metric].Value, wb.Metrics[metric].Value
			base := math.Min(math.Abs(va), math.Abs(vb))
			if base == 0 || math.Abs(va-vb)/base > a.Bounds[metric].Bound {
				problems = append(problems, fmt.Sprintf("%s %s: %.6g vs %.6g %s differ by more than %.3g",
					name, metric, va, vb, a.Bounds[metric].Unit, a.Bounds[metric].Bound))
			}
		}
	}
	return problems
}
