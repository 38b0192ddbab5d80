package loopblock_test

import (
	"testing"

	"eris/internal/analysis/analysistest"
	"eris/internal/analysis/loopblock"
)

func TestLoopBlock(t *testing.T) {
	analysistest.Run(t, loopblock.Analyzer, "a")
}
