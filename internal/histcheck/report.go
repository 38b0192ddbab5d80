package histcheck

// Violation persistence: a failed check dumps its minimized failing
// fragments as JSON under results/. Each fragment's Events re-run through
// CheckEvents with the dump's Initial and DefaultUnknown, so a violation
// caught in CI can be replayed and bisected locally without re-provoking
// the race (TestDumpAndReplay does exactly that).

import (
	"encoding/json"
	"os"
	"path/filepath"

	"eris/internal/prefixtree"
)

// Dump is the serialized form of a failed check.
type Dump struct {
	// Name labels the run that produced the dump (test or tool name).
	Name string
	// Initial is the base state the histories were checked against, so a
	// replay needs nothing but the file.
	Initial []prefixtree.KV
	// DefaultUnknown mirrors Options.DefaultUnknown at check time.
	DefaultUnknown bool
	Violations     []Violation
}

// WriteViolations serializes res's violations under dir (created if
// missing) and returns the file path.
func WriteViolations(dir, name string, res Result, opts Options) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	d := Dump{
		Name:           name,
		Initial:        opts.Initial,
		DefaultUnknown: opts.DefaultUnknown,
		Violations:     res.Violations,
	}
	blob, err := json.MarshalIndent(&d, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+"-violations.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
