package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(benchProcs)
	os.Exit(m.Run())
}

// smokeConfig is the benchmark at toy size: 64 Ki keys or tuples and a
// 300 ms interval.
func smokeConfig(t *testing.T, traced bool) *config {
	return &config{
		seed: 1, warmup: 50 * time.Millisecond, measure: 300 * time.Millisecond, window: 100 * time.Millisecond,
		traced: traced, outDir: t.TempDir(),
		sz: sizes{indexKeys: 64 << 10, colPerAEU: 32 << 10, mixedSlots: 64 << 10, sampleEvery: 4},
	}
}

func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := runOnce(name, smokeConfig(t, false))
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted == 0 || res.Failed != 0 || res.metrics["failed_frac"] != 0 {
				t.Errorf("attempted %d, failed %d, failed_frac %v", res.Attempted, res.Failed, res.metrics["failed_frac"])
			}
			var out bytes.Buffer
			printRun(&out, res)
			for _, spec := range allEndToEnd() {
				if spec.name == "failed_frac" || (spec.name == "recover_s" && name != "serve-upsert-durable") {
					continue // 0 on a correct run; one workload only
				}
				v, ok := res.EndToEnd[spec.name]
				if !ok || v.Unit != spec.unit || v.Value <= 0 {
					t.Errorf("%s = %+v (reported: %v), want a positive value in %s", spec.name, v, ok, spec.unit)
				}
				if !lineWith(out.String(), spec.name, spec.unit) {
					t.Errorf("%s is not printed with unit %s:\n%s", spec.name, spec.unit, out.String())
				}
			}
			if name == "serve-upsert-durable" {
				if res.RecoveryChecked == 0 {
					t.Error("recovery verification did not run")
				}
			} else if res.metrics["durable.fsyncs_per_op"] != 0 {
				t.Errorf("durable layer active outside its workload: %v fsyncs per op", res.metrics["durable.fsyncs_per_op"])
			}
		})
	}
}

// lineWith reports whether some line of out holds both words.
func lineWith(out, a, b string) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 4 && f[1] == a && f[len(f)-1] == b {
			return true
		}
	}
	return false
}

// TestCheckerHasTeeth makes each workload's model expect one wrong value; a
// checker that cannot see it would let a wrong engine pass.
func TestCheckerHasTeeth(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := smokeConfig(t, false)
			cfg.corrupt = true
			res, err := runOnce(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed == 0 || res.metrics["failed_frac"] <= 0 {
				t.Errorf("corrupted expectation went unnoticed: failed %d of %d", res.Failed, res.Attempted)
			}
		})
	}
}

func TestTracedSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := smokeConfig(t, true)
			cfg.measure = 600 * time.Millisecond
			res, err := runOnce(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Errorf("failed %d of %d: a replay broke the caller's model", res.Failed, res.Attempted)
			}
			for _, spec := range perLayer {
				if v, ok := res.PerLayer[spec.name]; !ok || v.Unit != spec.unit {
					t.Errorf("per-layer metric %s missing or in the wrong unit: %+v", spec.name, v)
				}
			}
			if res.metrics["trace.replays"] == 0 || len(res.Attribution) == 0 {
				t.Fatalf("no operation was replayed (%v replays)", res.metrics["trace.replays"])
			}
			for _, row := range res.Attribution {
				if row.SelfUS < 0 {
					t.Errorf("negative self time: %+v", row)
				}
			}
			served := name != "embed-colscan"
			if got := res.metrics["server.requests"] > 0; got != served {
				t.Errorf("server.requests = %v on %s", res.metrics["server.requests"], name)
			}
			if err := writeSpans(cfg.outDir, res); err != nil {
				t.Fatal(err)
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("result does not marshal: %v", err)
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the ledger's own metric tables
// in step: same workloads, names, units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json above this package:", err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if want := endToEnd[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, m, want)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if want := perLayer[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, m, want)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS, p50 float64) string {
		led := ledger{}
		for i := 0; i < 4; i++ {
			led.Runs = append(led.Runs, &runResult{Workload: "serve-lookup", EndToEnd: map[string]value{
				"ops_per_s": {opsPerS + float64(i), "1/s"}, "p50_us": {p50, "us"},
			}})
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, &led); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	if err := compareLedgers(&out, write("a.json", 1000, 100), write("b.json", 700, 101)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ops_per_s", "regressed", "p50_us", "ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}
}
