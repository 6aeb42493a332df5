package lockdiscipline_test

import (
	"testing"

	"repro/internal/lint/linttest"
	"repro/internal/lint/lockdiscipline"
)

func TestLockDiscipline(t *testing.T) {
	linttest.Run(t, lockdiscipline.Analyzer, "a", "breaker", "hotpath", "revalpath", "coordpath", "samename")
}
