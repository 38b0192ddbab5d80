// Package bench regenerates every table and figure of the ERIS paper's
// evaluation on the simulated NUMA machines. Each experiment is a function
// returning one or more Tables whose rows mirror the paper's series; the
// cmd/erisbench binary and the repository-level Go benchmarks call into
// this package.
//
// Scaling: the paper's data sizes (up to 32 billion keys, 8 TB of RAM) are
// divided by the scale factor (default 2048) and the modeled LLC capacities
// are divided by the same factor, so the cache-resident-to-memory-bound
// transitions happen at the same *relative* index sizes as on the real
// machines. Virtual run times are scaled likewise. EXPERIMENTS.md records
// paper-vs-measured values for every artifact.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// DefaultScale divides the paper's data sizes and cache capacities.
const DefaultScale = 2048

// Params tunes an experiment run.
type Params struct {
	// Quick shrinks durations and sweep points for tests; the full
	// configuration is used by cmd/erisbench and the repo benchmarks.
	Quick bool
	// Scale overrides DefaultScale (0 = default).
	Scale float64
}

func (p Params) scale() float64 {
	if p.Scale == 0 {
		return DefaultScale
	}
	return p.Scale
}

// cacheScale divides the modeled LLC capacities. It is deliberately gentler
// than the data scale: the scaled-down tries are 4 levels deep instead of
// the paper's 8 and their fixed 1 KiB node size amortizes over fewer keys,
// so shrinking the LLC by the full data factor would push the
// cache-resident-to-memory-bound transition far below the paper's relative
// position. Dividing by scale/8 restores it (see EXPERIMENTS.md).
func (p Params) cacheScale() float64 {
	cs := p.scale() / 8
	if cs < 1 {
		cs = 1
	}
	return cs
}

// dur picks a measurement window in virtual seconds.
func (p Params) dur(full float64) float64 {
	if p.Quick {
		return full / 10
	}
	return full
}

// Table is one printable result table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Add appends a row, formatting each cell.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		case int:
			row[i] = fmt.Sprintf("%d", v)
		case int64:
			row[i] = fmt.Sprintf("%d", v)
		case uint64:
			row[i] = fmt.Sprintf("%d", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1e6 || v < 1e-3:
		return fmt.Sprintf("%.3e", v)
	case v >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Note records a free-form annotation printed under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// Experiment is a named, runnable paper artifact.
type Experiment struct {
	ID    string
	Paper string // which table/figure it reproduces
	Run   func(p Params) ([]*Table, error)
}

// Registry lists every reproducible artifact in paper order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "table1", Paper: "Table 1: machine specification overview", Run: Table1},
		{ID: "table2", Paper: "Table 2: memory bandwidth and latency by distance", Run: Table2},
		{ID: "fig1", Paper: "Figure 1: lookup and scan scalability on SGI UV 2000", Run: Fig1},
		{ID: "fig5", Paper: "Figure 5: routing throughput vs. outgoing buffer size", Run: Fig5},
		{ID: "fig8a", Paper: "Figure 8a: lookup/upsert throughput vs. index size (Intel)", Run: Fig8Intel},
		{ID: "fig8b", Paper: "Figure 8b: lookup/upsert throughput vs. index size (AMD)", Run: Fig8AMD},
		{ID: "fig8c", Paper: "Figure 8c: lookup/upsert throughput vs. index size (SGI)", Run: Fig8SGI},
		{ID: "fig9", Paper: "Figure 9: scan bandwidth vs. allocation strategy (SGI)", Run: Fig9},
		{ID: "fig10", Paper: "Figure 10: L3 miss ratio (AMD)", Run: Fig10},
		{ID: "fig11", Paper: "Figure 11: L3 hit cache-line states (Intel, 1B keys)", Run: Fig11},
		{ID: "fig12", Paper: "Figure 12: link and memory controller activity (AMD)", Run: Fig12},
		{ID: "fig13", Paper: "Figure 13: load balancer adaptivity (AMD)", Run: Fig13},
		{ID: "ablation-buffer", Paper: "Ablation: outgoing-buffer pre-batching vs direct writes", Run: AblationDirectWrite},
		{ID: "ablation-coalesce", Paper: "Ablation: command grouping/coalescing on vs off", Run: AblationCoalescing},
		{ID: "ablation-transfer", Paper: "Ablation: link vs copy partition transfer", Run: AblationTransfer},
		{ID: "ablation-ma", Paper: "Ablation: moving-average window sweep", Run: AblationMAWindow},
	}
}

// ByID resolves one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}
