package main

import "time"

// sizes are the frozen workload constants: identical on both sides of any
// later comparison, recorded in every results file, and refused by -agree
// when they differ. BENCHMARK.json has a fixed key set, so they live here.
type sizes struct {
	// Library workloads. Dataset content is frozen (GenSeed): between
	// generator draws the same op list costs ±6% (mine) to ±25% (prior
	// explore), and even a row permutation moves sampled mining ±8% because
	// it changes which rows the prepared sample holds — either would swamp a
	// 10% bound. -seed drives the queries instead: the sample every
	// fresh-sample op draws, and the row order of the exhaustively explored
	// sessions (which draw no sample; their cost moves ±2% with it).
	GenSeed      int64 `json:"gen_seed"`
	MineRows     int   `json:"mine_rows"`
	MineKs       []int `json:"mine_ks"`
	SampleSize   int   `json:"sample_size"`
	ExploreRows  int   `json:"explore_rows"`
	ExploreK     int   `json:"explore_k"`
	LightGroups  int   `json:"light_group_bys"`
	PriorGroups  int   `json:"prior_group_bys"`
	WideMineRows int   `json:"wide_mine_rows"`
	WideExpRows  int   `json:"wide_explore_rows"`
	WideKs       []int `json:"wide_ks"`
	WideDomains  []int `json:"wide_domains"`

	// Serving workloads.
	ScheduleSeed int64 `json:"schedule_seed"` // see schedule()
	Sessions     int   `json:"sessions"`
	SessionRows  int   `json:"session_rows"`
	// ServeDims and ServeSample shape what a computed answer costs. On all
	// nine income dimensions at the library's default pruning sample of 64 a
	// miss costs ~130 ms whatever the row count (the candidate space, not the
	// data, sets it) and an explore ~350 ms: two cores saturate near 6 req/s,
	// a window holds a dozen explores, and nothing repeats. On the first six
	// dimensions with a sample of 16 a miss is 5–12 ms and an explore ~23 ms,
	// so the window holds a thousand requests and a request's own layers —
	// decode, fingerprint, cache, admission, encode, journal — are a visible
	// share of every class.
	ServeDims    int     `json:"serve_dims"`
	ServeSample  int     `json:"serve_sample_size"`
	RatePerSec   float64 `json:"rate_per_s"`
	MineSpecs    int     `json:"mine_specs_per_session"`
	ZipfS        float64 `json:"zipf_s"`
	ExploreShare float64 `json:"explore_share"`
	AppendShare  float64 `json:"append_share"`
	DoubledShare float64 `json:"doubled_share"`
	BatchRows    int     `json:"append_batch_rows"`
	ShiftedEvery int     `json:"shifted_batch_every"`
	Shards       int     `json:"shards"`
	DrainPasses  int     `json:"drain_passes"`
	RestoreReps  int     `json:"restore_reps"`

	SetupReps  int `json:"setup_reps"`
	SpeedupOps int `json:"parallel_speedup_ops"`
}

var fullSizes = sizes{
	GenSeed: 1, MineRows: 50000, MineKs: []int{3, 5, 10, 20}, SampleSize: 64,
	ExploreRows: 3000, ExploreK: 3, LightGroups: 1, PriorGroups: 9,
	WideMineRows: 20000, WideExpRows: 500, WideKs: []int{3, 5},
	WideDomains: []int{4, 6, 8, 255, 255, 255, 255, 255, 255, 255},

	ScheduleSeed: 1, Sessions: 4, SessionRows: 1000, ServeDims: 6, ServeSample: 16, RatePerSec: 160, MineSpecs: 8, ZipfS: 1.5,
	ExploreShare: 0.08, AppendShare: 0.06, DoubledShare: 0.05, BatchRows: 5,
	ShiftedEvery: 3, Shards: 2, DrainPasses: 3, RestoreReps: 7,

	SetupReps: 3, SpeedupOps: 4,
}

// smokeSizes push every code path of all five workloads through in about a
// second each; the numbers mean nothing.
var smokeSizes = sizes{
	GenSeed: 1, MineRows: 1500, MineKs: []int{3, 5}, SampleSize: 64,
	ExploreRows: 300, ExploreK: 3, LightGroups: 1, PriorGroups: 9,
	WideMineRows: 1200, WideExpRows: 260, WideKs: []int{3},
	WideDomains: []int{4, 6, 8, 255, 255, 255, 255, 255, 255, 255},

	ScheduleSeed: 1, Sessions: 2, SessionRows: 300, ServeDims: 6, ServeSample: 16, RatePerSec: 100, MineSpecs: 4, ZipfS: 1.5,
	ExploreShare: 0.08, AppendShare: 0.06, DoubledShare: 0.05, BatchRows: 5,
	ShiftedEvery: 3, Shards: 2, DrainPasses: 1, RestoreReps: 1,

	SetupReps: 1, SpeedupOps: 2,
}

// Op classes. A class is what an end-to-end latency metric is taken over.
const (
	classMine    = "mine"          // computed (non-cached) sampled mining
	classExplore = "explore"       // computed light exhaustive exploration
	classPrior   = "prior_explore" // computed exploration under a large prior
	classAppend  = "append"
	classHit     = "hit" // answered from the result cache
)

// limits are the per-class latency limits behind within_limit_share, set
// once at about ten times this commit's p50 on the reference box and
// frozen. The serving limits are the issue's; library ops are larger
// inputs and get their own row.
var limits = map[string]map[string]time.Duration{
	"mine":    {classMine: 5 * time.Second},
	"explore": {classExplore: 3 * time.Second, classPrior: 6 * time.Second},
	"wide":    {classMine: 3 * time.Second, classExplore: 10 * time.Second},
	"serve":   servingLimits,
	"route":   servingLimits,
}

var servingLimits = map[string]time.Duration{
	classHit: 20 * time.Millisecond, classMine: time.Second,
	classExplore: 3 * time.Second, classAppend: time.Second,
}

var workloadNames = []string{"mine", "explore", "wide", "serve", "route"}
