// Command erisvet is the engine's own multichecker: it runs the
// internal/analysis suite (hotpath and loopblock, the two checks of the AEU
// loop contract) over the module and exits non-zero on any finding. It sits
// next to `go vet` in CI and in scripts/vet.sh:
//
//	go run ./cmd/erisvet ./...
//
// Flags:
//
//	-only a,b   run only the named analyzers
//	-list       print the available analyzers and exit
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"eris/internal/analysis"
	"eris/internal/analysis/hotpath"
	"eris/internal/analysis/loopblock"
)

// suite is every analyzer erisvet runs, in report order.
var suite = []*analysis.Analyzer{
	hotpath.Analyzer,
	loopblock.Analyzer,
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := suite
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range suite {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "erisvet: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "erisvet: %v\n", err)
		os.Exit(2)
	}
	mod, err := analysis.LoadModule(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "erisvet: %v\n", err)
		os.Exit(2)
	}

	diags, err := analysis.Run(mod, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "erisvet: %v\n", err)
		os.Exit(2)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "erisvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
