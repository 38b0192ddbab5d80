package hotpath_test

import (
	"testing"

	"eris/internal/analysis/analysistest"
	"eris/internal/analysis/hotpath"
)

func TestHotPath(t *testing.T) {
	analysistest.Run(t, hotpath.Analyzer, "a")
}
