package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartileSpread is the distance between the first and third quartile of xs
// as a share of their median (the "exclusive" method, as Python's
// statistics.quantiles(n=4) computes it); 0 for fewer than two values.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	med := medianFloat(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / med
}

// ledgerValues gathers, per workload and end-to-end metric, the values of a
// ledger file's untraced runs.
func ledgerValues(path string) (map[string]map[string][]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var led ledger
	if err := json.Unmarshal(raw, &led); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string][]float64{}
	for _, res := range led.Runs {
		if res.Traced {
			continue
		}
		if out[res.Workload] == nil {
			out[res.Workload] = map[string][]float64{}
		}
		for name, v := range res.EndToEnd {
			out[res.Workload][name] = append(out[res.Workload][name], v.Value)
		}
	}
	return out, nil
}

// compareLedgers prints one row per workload and end-to-end metric: both
// medians, the ratio with its base, and a verdict against the metric's bound.
// A difference inside the runs' own quartile spread, when that spread is
// wider than the bound, is unresolved rather than ok or regressed.
func compareLedgers(w io.Writer, basePath, newPath string) error {
	base, err := ledgerValues(basePath)
	if err != nil {
		return err
	}
	cur, err := ledgerValues(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base = %s, new = %s; ratio = new / base\n", basePath, newPath)
	fmt.Fprintf(w, "%-22s %-22s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "base median", "new median", "ratio", "spread", "bound", "verdict")
	for _, name := range workloadNames {
		for _, spec := range allEndToEnd() {
			b, c := base[name][spec.name], cur[name][spec.name]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			bm, cm := medianFloat(b), medianFloat(c)
			spread := max(quartileSpread(b), quartileSpread(c))
			verdict, ratio := "ok", 0.0
			switch {
			case spec.name == "failed_frac":
				if cm > bm {
					verdict = "regressed"
				}
			case bm == 0:
				verdict = "unresolved"
			default:
				ratio = cm / bm
				worse := ratio - 1
				if spec.better == "higher" {
					worse = 1 - ratio
				}
				switch {
				case spread > spec.bound:
					verdict = "unresolved"
				case worse > spec.bound:
					verdict = "regressed"
				}
			}
			fmt.Fprintf(w, "%-22s %-22s %14.6g %14.6g %8.4f %6.2f%% %6.0f%%  %s (n=%d/%d)\n",
				name, spec.name, bm, cm, ratio, spread*100, spec.bound*100, verdict, len(b), len(c))
		}
	}
	return nil
}
