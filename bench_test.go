package eris_test

// One Go benchmark per table and figure of the paper's evaluation, plus
// the design-choice ablations. Each benchmark executes the corresponding
// experiment from internal/bench in its quick configuration and reports
// headline metrics via b.ReportMetric; `go test -bench=.` therefore
// regenerates (a reduced form of) every artifact, and `cmd/erisbench`
// produces the full-size tables.

import (
	"strconv"
	"strings"
	"testing"

	"eris/internal/bench"
)

// runExperiment executes one registry entry and returns its tables.
func runExperiment(b *testing.B, id string) []*bench.Table {
	b.Helper()
	exp, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var tables []*bench.Table
	for i := 0; i < b.N; i++ {
		tables, err = exp.Run(bench.Params{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	if testing.Verbose() {
		for _, t := range tables {
			b.Log("\n" + t.String())
		}
	}
	return tables
}

// cell parses a numeric table cell ("1.23", "12.34", "1.2e+03").
func cell(b *testing.B, t *bench.Table, row, col int) float64 {
	b.Helper()
	if row >= len(t.Rows) || col >= len(t.Rows[row]) {
		b.Fatalf("table %q has no cell (%d,%d)", t.Title, row, col)
	}
	s := strings.TrimSpace(t.Rows[row][col])
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q: %v", row, col, s, err)
	}
	return v
}

func BenchmarkTable1MachineSpecs(b *testing.B) {
	tables := runExperiment(b, "table1")
	b.ReportMetric(float64(len(tables[0].Rows)), "spec-rows")
}

func BenchmarkTable2BandwidthLatency(b *testing.B) {
	tables := runExperiment(b, "table2")
	// Headline: the worst-case SGI latency must calibrate to 870 ns.
	sgi := tables[2]
	b.ReportMetric(cell(b, sgi, len(sgi.Rows)-1, 3), "worst-latency-ns")
}

func BenchmarkFig1Scalability(b *testing.B) {
	tables := runExperiment(b, "fig1")
	lookup, scan := tables[0], tables[1]
	last := len(lookup.Rows) - 1
	b.ReportMetric(cell(b, lookup, last, 3), "lookup-speedup")
	b.ReportMetric(cell(b, scan, len(scan.Rows)-1, 3), "scan-speedup")
}

func BenchmarkFig5RoutingThroughput(b *testing.B) {
	tables := runExperiment(b, "fig5")
	t := tables[0]
	first := cell(b, t, 0, 2)
	lastRow := len(t.Rows) - 1
	b.ReportMetric(cell(b, t, lastRow, 2)/first, "raw-gain-vs-tiny-buffer")
}

func benchFig8(b *testing.B, id string) {
	tables := runExperiment(b, id)
	t := tables[0]
	last := len(t.Rows) - 1
	b.ReportMetric(cell(b, t, last, 4), "lookup-ratio-eris-vs-shared")
	b.ReportMetric(cell(b, t, last, 7), "upsert-ratio-eris-vs-shared")
}

func BenchmarkFig8aIntel(b *testing.B) { benchFig8(b, "fig8a") }
func BenchmarkFig8bAMD(b *testing.B)   { benchFig8(b, "fig8b") }
func BenchmarkFig8cSGI(b *testing.B)   { benchFig8(b, "fig8c") }

func BenchmarkFig9ScanBandwidth(b *testing.B) {
	tables := runExperiment(b, "fig9")
	t := tables[0]
	single := cell(b, t, 0, 1)
	inter := cell(b, t, 1, 1)
	eris := cell(b, t, 2, 1)
	b.ReportMetric(eris/inter, "eris-vs-interleaved")
	b.ReportMetric(eris/single, "eris-vs-single-ram")
	b.ReportMetric(cell(b, t, 2, 3), "pct-of-local-bw")
}

func BenchmarkFig10MissRatio(b *testing.B) {
	tables := runExperiment(b, "fig10")
	t := tables[0]
	b.ReportMetric(cell(b, t, 0, 1), "eris-miss-ratio")
	b.ReportMetric(cell(b, t, 0, 2), "shared-miss-ratio")
}

func BenchmarkFig11CacheLineStates(b *testing.B) {
	tables := runExperiment(b, "fig11")
	t := tables[0]
	b.ReportMetric(cell(b, t, 0, 5), "eris-modified+exclusive-pct")
	b.ReportMetric(cell(b, t, 1, 6), "shared-shared+forward-pct")
}

func BenchmarkFig12LinkActivity(b *testing.B) {
	tables := runExperiment(b, "fig12")
	t := tables[0]
	b.ReportMetric(cell(b, t, 1, 2), "eris-scan-mc-gbs")
	b.ReportMetric(cell(b, t, 0, 1), "shared-scan-link-gbs")
}

func BenchmarkFig13LoadBalancer(b *testing.B) {
	tables := runExperiment(b, "fig13")
	summary := tables[1]
	// Rows: off, One-Shot, MA1, MA8. Headline: recovery times.
	b.ReportMetric(cell(b, summary, 1, 4), "oneshot-recovery-ms")
	b.ReportMetric(cell(b, summary, 2, 4), "ma1-recovery-ms")
	b.ReportMetric(cell(b, summary, 3, 4), "ma8-recovery-ms")
}

func BenchmarkAblationDirectWrite(b *testing.B) {
	tables := runExperiment(b, "ablation-buffer")
	t := tables[0]
	b.ReportMetric(cell(b, t, len(t.Rows)-1, 3), "batched-vs-direct")
}

func BenchmarkAblationCoalescing(b *testing.B) {
	tables := runExperiment(b, "ablation-coalesce")
	t := tables[0]
	b.ReportMetric(cell(b, t, 0, 1)/cell(b, t, 1, 1), "grouping-on-vs-off")
	s := tables[1]
	b.ReportMetric(cell(b, s, 0, 1)/cell(b, s, 1, 1), "scan-coalescing-on-vs-off")
}

func BenchmarkAblationTransfer(b *testing.B) {
	tables := runExperiment(b, "ablation-transfer")
	t := tables[0]
	b.ReportMetric(cell(b, t, 1, 2)/cell(b, t, 0, 2), "copy-vs-link-cost")
}

func BenchmarkAblationMAWindow(b *testing.B) {
	tables := runExperiment(b, "ablation-ma")
	t := tables[0]
	b.ReportMetric(cell(b, t, 0, 3), "ma1-drop-pct")
	b.ReportMetric(cell(b, t, len(t.Rows)-1, 3), "widest-window-drop-pct")
}
