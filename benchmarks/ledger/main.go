// Command ledger is the repository's benchmark: four closed-loop workloads
// against an engine built in this process, every answer checked, every layer
// measured from outside. See ../README.md; run it through ../run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

const (
	benchProcs  = 2    // GOMAXPROCS, so AEU:core ratios mean the same on any host
	stealLimit  = 0.05 // host.steal_frac above this makes a run suspect
	stealReruns = 2    // reruns allowed per invocation when a run is suspect
	warmup      = 3 * time.Second
)

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "seed of the callers' generators")
		seconds      = flag.Int("seconds", 30, "measured interval of one run, in seconds")
		trace        = flag.String("trace", "both", "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics), both")
		runs         = flag.Int("runs", 1, "repetitions of the whole selection, with seeds seed, seed+1, ...")
		outDir       = flag.String("out", "benchmarks/out", "directory for WAL files and span files")
		jsonPath     = flag.String("json", "", "write the ledger file here")
		label        = flag.String("label", "", "label recorded in the ledger file")
		commit       = flag.String("commit", "unknown", "commit hash recorded in the ledger file")
		compare      = flag.Bool("compare", false, "compare two ledger files: -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two ledger files"))
		}
		if err := compareLedgers(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}

	names := workloadNames
	if *workloadFlag != "all" {
		names = []string{*workloadFlag}
	}
	var modes []bool
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fatal(fmt.Errorf("-trace wants 0, 1 or both, not %q", *trace))
	}
	if *seconds < 2 {
		// Each half of a traced interval must hold a 1-second window.
		fatal(fmt.Errorf("-seconds must be at least 2"))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	runtime.GOMAXPROCS(benchProcs)

	led := ledger{
		Label: *label, Commit: *commit, Seed: *seed, NProc: runtime.NumCPU(), GOMAXPROCS: benchProcs,
		GoVersion: runtime.Version(), Callers: callers, StealLimit: stealLimit, StealReruns: []stealRerun{},
	}
	rerunsLeft := stealReruns
	var last *runResult
	for r := 0; r < *runs; r++ {
		for _, name := range names {
			for _, traced := range modes {
				cfg := &config{
					seed: *seed + int64(r), warmup: warmup,
					measure: time.Duration(*seconds) * time.Second, window: time.Second,
					traced: traced, outDir: *outDir, sz: fullSizes,
				}
				res, err := runGuarded(name, cfg, &rerunsLeft, &led)
				if err != nil {
					fatal(err)
				}
				if traced {
					if err := writeSpans(*outDir, res); err != nil {
						fatal(err)
					}
				}
				printRun(os.Stdout, res)
				led.Runs = append(led.Runs, res)
				last = res
			}
		}
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, &led); err != nil {
			fatal(err)
		}
	}
	if len(led.Runs) == 1 {
		printContractLine(os.Stdout, last)
		return
	}
	var attempted, failed int64
	for _, res := range led.Runs {
		attempted += res.Attempted
		failed += res.Failed
	}
	summary, _ := json.Marshal(map[string]any{
		"runs": len(led.Runs), "attempted": attempted, "failed": failed, "correct": failed == 0, "claim": nil,
	})
	fmt.Println(string(summary))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ledger:", err)
	os.Exit(1)
}

// runGuarded runs one workload and, while the host stole more than
// stealLimit of the measured interval and reruns are left, runs it again;
// the attempt with the least steal is reported.
func runGuarded(name string, cfg *config, rerunsLeft *int, led *ledger) (*runResult, error) {
	best, err := runOnce(name, cfg)
	if err != nil {
		return nil, err
	}
	for best.stealFrac > stealLimit && *rerunsLeft > 0 {
		*rerunsLeft--
		fmt.Fprintf(os.Stderr, "ledger: %s: host.steal_frac %.3f > %.2f, rerunning (%d reruns left)\n", name, best.stealFrac, stealLimit, *rerunsLeft)
		led.StealReruns = append(led.StealReruns, stealRerun{Workload: name, Traced: cfg.traced, Seed: cfg.seed, StealFrac: best.stealFrac})
		again, err := runOnce(name, cfg)
		if err != nil {
			return nil, err
		}
		if again.stealFrac < best.stealFrac {
			best = again
		}
	}
	if best.stealFrac > stealLimit {
		fmt.Fprintf(os.Stderr, "ledger: warning: %s measured with host.steal_frac %.3f > %.2f; its numbers are the host's, not the code's\n", name, best.stealFrac, stealLimit)
	}
	return best, nil
}

// ledger is the machine-readable record of one invocation (-json).
type ledger struct {
	Label       string       `json:"label"`
	Commit      string       `json:"commit"`
	Seed        int64        `json:"seed"`
	NProc       int          `json:"host_nproc"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	GoVersion   string       `json:"go_version"`
	Callers     int          `json:"closed_loop_callers"`
	StealLimit  float64      `json:"steal_limit"`
	StealReruns []stealRerun `json:"steal_reruns"`
	Runs        []*runResult `json:"runs"`
	Claim       *string      `json:"claim"` // always null: the benchmark claims no gain
}

type stealRerun struct {
	Workload  string  `json:"workload"`
	Traced    bool    `json:"traced"`
	Seed      int64   `json:"seed"`
	StealFrac float64 `json:"steal_frac"`
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// writeSpans writes the span file unindented: it holds up to 2 x 65 536 spans.
func writeSpans(dir string, res *runResult) error {
	raw, err := json.Marshal(map[string]any{"workload": res.Workload, "seed": res.Seed, "callers": res.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+res.Workload+".json"), raw, 0o644)
}

func printRun(w io.Writer, res *runResult) {
	mode := "untraced"
	if res.Traced {
		mode = "traced (first half of the interval is the untraced reference)"
	}
	fmt.Fprintf(w, "== %s  %s  seed=%d  seconds=%g  callers=%d closed-loop  wal_filesystem=%s\n",
		res.Workload, mode, res.Seed, res.Seconds, callers, res.WALFilesystem)
	fmt.Fprintf(w, "   attempted=%d failed=%d latency_samples=%d recovery_checked_keys=%d\n",
		res.Attempted, res.Failed, res.Samples, res.RecoveryChecked)
	fmt.Fprintf(w, "   window_rates(1/s)=%.0f\n", res.WindowRates)
	printValues(w, "end-to-end", res.EndToEnd)
	if !res.Traced {
		return
	}
	printValues(w, "per-layer", res.PerLayer)
	fmt.Fprintf(w, "   attribution of the traced p50 (%.2f us) to layers:\n", res.metrics["trace.p50_us"])
	for _, row := range res.Attribution {
		kind := ""
		if row.Residual {
			kind = "  [residual]"
		}
		fmt.Fprintf(w, "   %-52s %12.3f us %6.1f %%%s\n", row.Layer, row.SelfUS, row.Share*100, kind)
	}
}

func printValues(w io.Writer, kind string, vals map[string]value) {
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "   %-10s %-34s %18.6g %s\n", kind, n, vals[n].Value, vals[n].Unit)
	}
}

// printContractLine prints the one-object result line a benchmark driver
// reads: the end-to-end metrics of an untraced run, the per-layer metrics of
// a traced one.
func printContractLine(w io.Writer, res *runResult) {
	metrics := res.metrics.report(endToEnd)
	if res.Traced {
		metrics = res.PerLayer
	}
	line, _ := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	fmt.Fprintln(w, string(line))
}
