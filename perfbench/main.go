// Command perfbench is the repository benchmark: three closed-loop
// workloads driven through the public entry points (vqf.New,
// vqf.NewElastic, and vqfd's binary protocol), an untraced run that
// reports the end-to-end metrics, and a traced run that replays the same
// ops down the layer ladder (service, vqf, internal/elastic, internal/core,
// kernel) and reports per-layer metrics. See LADDER.md.
//
// Usage (from the repository root, through run.py, which builds it):
//
//	python3 perfbench/run.py --workload cascade-churn --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result object; the line before
// it describes the environment. A failed correctness gate exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"vqf/internal/harness"
)

// claimSeed is the workload seed reserved for re-checking a performance
// claim: development runs never use it, so a claim that holds on it was not
// tuned to it.
const claimSeed = 1_000_003

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer list every metric the two run modes print, with
// units. A workload that bypasses a layer prints that layer's metrics as 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mops", "Mops/s"},
	{"insert_ns", "ns"},
	{"lookup_pos_ns", "ns"},
	{"lookup_neg_ns", "ns"},
	{"remove_ns", "ns"},
	{"request_us", "us"},
	{"fpr", "frac"},
	{"bits_per_item", "bits/item"},
	{"success_rate", "frac"},
}

var perLayer = []metricDef{
	{"kernel.probe_ns", "ns"},
	{"kernel.insert_ns", "ns"},
	{"kernel.remove_ns", "ns"},
	{"core.insert_ns", "ns"},
	{"core.lookup_pos_ns", "ns"},
	{"core.lookup_neg_ns", "ns"},
	{"core.remove_ns", "ns"},
	{"core.batch_ns_per_key", "ns"},
	{"core.shortcut_frac", "frac"},
	{"core.full_block_frac", "frac"},
	{"core.load_factor", "frac"},
	{"core.insert_fail_frac", "frac"},
	{"core.opt_retry_frac", "frac"},
	{"core.opt_fallbacks", "count"},
	{"core.shard_imbalance", "ratio"},
	{"elastic.lookup_neg_ns", "ns"},
	{"elastic.lookup_pos_ns", "ns"},
	{"elastic.insert_ns", "ns"},
	{"elastic.remove_ns", "ns"},
	{"elastic.levels_mean", "levels"},
	{"elastic.fuse_levels_mean", "levels"},
	{"elastic.levels_probed_neg", "levels"},
	{"elastic.levels_probed_pos", "levels"},
	{"elastic.grows", "count"},
	{"elastic.compactions", "count"},
	{"elastic.levels_merged", "count"},
	{"elastic.freezes", "count"},
	{"elastic.thaws", "count"},
	{"elastic.thaw_per_freeze", "ratio"},
	{"elastic.struct_ms_total", "ms"},
	{"elastic.struct_ms_max", "ms"},
	{"elastic.fuse_bytes_frac", "frac"},
	{"elastic.fpr_budget_used", "frac"},
	{"facade.hash_ns", "ns"},
	{"facade.sampled_frac", "frac"},
	{"facade.self_insert_ns", "ns"},
	{"facade.self_lookup_ns", "ns"},
	{"facade.self_remove_ns", "ns"},
	{"facade.batch_us_p50", "us"},
	{"service.ping_us_p50", "us"},
	{"service.self_us_p50", "us"},
	{"service.self_us_p99", "us"},
	{"service.status_nonok", "count"},
	{"service.partial_insert_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

type metricDef struct{ name, unit string }

// outcome is what one workload run produces: its metrics, the op
// accounting, and any correctness gate that failed.
type outcome struct {
	attempted, failed uint64
	values            map[string]float64
	gateErrs          []string
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// gate records a failed correctness check; a run with any is not correct.
func (o *outcome) gate(ok bool, format string, args ...any) {
	if !ok {
		o.gateErrs = append(o.gateErrs, fmt.Sprintf(format, args...))
	}
}

// successRate is 1 − failed/attempted, the complement of the error rate.
func (o *outcome) successRate() float64 {
	if o.attempted == 0 {
		return 0
	}
	return 1 - float64(o.failed)/float64(o.attempted)
}

// config fixes one run: the workload, its seed, the run length, whether
// the layer ladder is traced, where spans are written, and whether to run
// at the self test's tiny sizes.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	traceDir string
	tiny     bool
}

var workloads = map[string]func(config) (*outcome, error){
	"embed-l2":      runEmbed,
	"cascade-churn": runCascade,
	"vqfd-binary":   runService,
}

func main() {
	var cfg config
	var traceFlag int
	var seed int64
	flag.StringVar(&cfg.workload, "workload", "", "embed-l2, cascade-churn or vqfd-binary")
	flag.Int64Var(&seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "nominal run length in seconds; fixes the amount of work")
	flag.IntVar(&traceFlag, "trace", 0, "1 replays the ops down the layer ladder and prints per-layer metrics")
	flag.StringVar(&cfg.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "directory the traced run writes its spans to")
	commit := flag.String("commit", "unknown", "commit or source digest of the code under test")
	flag.Parse()
	// One P: each workload's client loop and the program under test share
	// one vCPU. With two, Go's idle and GC threads and cross-vCPU wakeups
	// on the second vCPU, which may share a physical core with the first,
	// moved vqfd-binary request times 20-40% from run to run.
	runtime.GOMAXPROCS(1)
	cfg.seed = uint64(seed)
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", cfg.workload, cfg.seconds, traceFlag)
		os.Exit(2)
	}
	info := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"claim_seed": claimSeed, "commit": *commit, "env": harness.CaptureEnv(),
	}
	line, _ := json.Marshal(info) // map of plain values: cannot fail
	fmt.Println(string(line))

	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	res := render(cfg, out)
	line, _ = json.Marshal(res) // finite floats only: render rejects NaN and Inf
	fmt.Println(string(line))
	if !res.Correct {
		for _, e := range out.gateErrs {
			fmt.Fprintf(os.Stderr, "perfbench: correctness gate failed: %s\n", e)
		}
		os.Exit(1)
	}
}

// render turns an outcome into the printed result: every metric of the
// run mode, in the mode's unit, absent ones as 0.
func render(cfg config, out *outcome) result {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{Correct: len(out.gateErrs) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v := out.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.gate(false, "metric %s is not finite", d.name)
			res.Correct = false
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // an empty run fails its gates; keep the field valid
		res.Correct = false
	}
	return res
}
