package bench

import (
	"fmt"
	"strings"
	"testing"

	"eris/internal/core"
	"eris/internal/topology"
)

func TestTableFormatting(t *testing.T) {
	tb := &Table{
		Title:   "Demo",
		Headers: []string{"name", "value"},
	}
	tb.Add("alpha", 1.5)
	tb.Add("beta", int64(42))
	tb.Add("gamma", uint64(7))
	tb.Add("big", 2.5e9)
	tb.Note("a note with %d placeholder", 3)
	out := tb.String()
	for _, want := range []string{"== Demo ==", "alpha", "1.500", "42", "2.500e+09", "note: a note with 3 placeholder"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Paper == "" {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	if len(seen) < 16 {
		t.Errorf("registry has %d experiments", len(seen))
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("table1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("bogus"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestParams(t *testing.T) {
	p := Params{}
	if p.scale() != DefaultScale {
		t.Errorf("scale = %f", p.scale())
	}
	if p.cacheScale() != DefaultScale/8 {
		t.Errorf("cacheScale = %f", p.cacheScale())
	}
	if (Params{Scale: 4}).cacheScale() != 1 {
		t.Errorf("cacheScale floor broken")
	}
	if (Params{Quick: true}).dur(1) != 0.1 {
		t.Errorf("quick dur")
	}
}

func TestTable1Content(t *testing.T) {
	tables, err := Table1(Params{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	out := tables[0].String()
	for _, want := range []string{"Xeon E7-4860", "Opteron 6274", "512 cores", "NumaLink6"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 missing %q", want)
		}
	}
}

func TestTable2Calibration(t *testing.T) {
	tables, err := Table2(Params{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("%d tables", len(tables))
	}
	// Every row's measured bandwidth must match the paper column exactly
	// and the latency within 2% (the 8-byte transfer adds a little).
	for _, tb := range tables {
		for _, row := range tb.Rows {
			if row[1] != row[2] {
				t.Errorf("%s %s: measured BW %s != paper %s", tb.Title, row[0], row[1], row[2])
			}
		}
	}
	amd := tables[1]
	if len(amd.Rows) != 6 {
		t.Errorf("AMD has %d distance classes, want 6", len(amd.Rows))
	}
}

func TestAblationTransferShape(t *testing.T) {
	tables, err := AblationTransfer(Params{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	link := mustFloat(t, rows[0][2])
	cp := mustFloat(t, rows[1][2])
	if link >= cp {
		t.Errorf("link transfer (%f us) should be far cheaper than copy (%f us)", link, cp)
	}
	if cp/link < 10 {
		t.Errorf("copy/link ratio %f suspiciously low", cp/link)
	}
}

func mustFloat(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscan(s, &v); err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// TestFigureRunsUse64BitTrees pins the experiments' index shape: an engine
// built from engineConfig keeps 64-bit keys (eight levels) instead of
// fitting its trees to the domain, so the figures' cost model does not move.
func TestFigureRunsUse64BitTrees(t *testing.T) {
	if got := treeConfig64(); got.KeyBits != 64 || got.PrefixBits != 8 {
		t.Fatalf("treeConfig64() = %+v", got)
	}
	e, err := core.New(setup{Topo: topology.SingleNode(2)}.engineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	if err := e.CreateIndex(benchObj, 4<<20); err != nil {
		t.Fatal(err)
	}
	cfg := e.AEUs()[0].Partition(benchObj).Tree.Store().Config()
	if cfg.KeyBits != 64 || cfg.KeyBits/cfg.PrefixBits != 8 {
		t.Fatalf("figure engine built a %d-bit tree of %d levels, want 64 bits and 8", cfg.KeyBits, cfg.KeyBits/cfg.PrefixBits)
	}
}
