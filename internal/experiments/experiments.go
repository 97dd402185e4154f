// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) against the simulated DBMS substrate. Each experiment
// returns structured rows plus a rendered text table whose columns match
// the paper's, so paper-vs-measured comparisons are direct (they are
// recorded in EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"runtime"
	"strings"
)

// Scale controls experiment budgets. The paper uses wall-clock budgets
// (1 h, 24 h) on a 64-core server; statement counts are the comparable
// unit for an in-process engine.
type Scale struct {
	// Table2Cases is the per-DBMS oracle-check budget of the bug-finding
	// campaign.
	Table2Cases int
	// Table3Cases is the per-run budget of the coverage comparison.
	Table3Cases int
	// Table4Cases is the per-run budget of the validity comparison.
	Table4Cases int
	// Table5Cases and Table5Runs configure the prioritization study
	// (the paper: 1 h × 5 runs on CrateDB).
	Table5Cases int
	Table5Runs  int
	// Fig6Cases is the per-source-DBMS campaign budget used to collect
	// bug-inducing cases for the cross-DBMS validity matrix.
	Fig6Cases int
	// Fig6MaxCasesPerDBMS caps the cases re-executed per source system.
	Fig6MaxCasesPerDBMS int
	// AblationCases is the per-configuration budget of the ablations.
	AblationCases int
	// Workers bounds the pool the multi-campaign experiments (Table 2,
	// Table 5, Figure 6) fan their independent campaigns out over.
	// 0 picks min(GOMAXPROCS, 8); results are index-ordered, so the
	// output is identical for every worker count.
	Workers int
}

// workerCount resolves the Workers default.
func (s Scale) workerCount() int {
	if s.Workers > 0 {
		return s.Workers
	}
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if w < 1 {
		w = 1
	}
	return w
}

// DefaultScale keeps every experiment comfortably inside a test run.
func DefaultScale() Scale {
	return Scale{
		Table2Cases:         2500,
		Table3Cases:         2500,
		Table4Cases:         3000,
		Table5Cases:         4000,
		Table5Runs:          3,
		Fig6Cases:           1500,
		Fig6MaxCasesPerDBMS: 25,
		AblationCases:       2500,
	}
}

// FullScale is the cmd/experiments default: closer to the paper's
// budgets (minutes instead of milliseconds per cell).
func FullScale() Scale {
	return Scale{
		Table2Cases:         20000,
		Table3Cases:         12000,
		Table4Cases:         12000,
		Table5Cases:         30000,
		Table5Runs:          5,
		Fig6Cases:           6000,
		Fig6MaxCasesPerDBMS: 40,
		AblationCases:       10000,
	}
}

// table renders an aligned text table.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) render(title string) string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	sb.WriteString(title)
	sb.WriteByte('\n')
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteByte('\n')
	}
	line(t.header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.rows {
		line(row)
	}
	return sb.String()
}

func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
func f1(f float64) string  { return fmt.Sprintf("%.1f", f) }
func itoa(n int) string    { return fmt.Sprintf("%d", n) }
