package report

import (
	"fmt"

	"itr/internal/par"
	"itr/internal/pipeline"
	"itr/internal/stats"
	"itr/internal/workload"
)

// PerfRow is one benchmark's measured frontend-protection performance
// comparison: the paper's Section 5/6 argument that "frontend bandwidth is
// pricier than execution bandwidth" — ITR protects the frontend without
// consuming it, while conventional time redundancy fetches and decodes
// everything twice.
type PerfRow struct {
	Benchmark string `json:"benchmark"`
	// BaseIPC is the unprotected core.
	BaseIPC float64 `json:"baseIPC"`
	// ITRIPC is the core with the full ITR checker attached (the overhead
	// is only ITR cache dispatch/commit work, not frontend bandwidth).
	ITRIPC float64 `json:"itrIPC"`
	// DualDecodeIPC is structural duplication (no bandwidth cost, pure
	// hardware cost).
	DualDecodeIPC float64 `json:"dualDecodeIPC"`
	// TimeRedundantIPC is conventional time redundancy (every instruction
	// through the frontend twice).
	TimeRedundantIPC float64 `json:"timeRedundantIPC"`
}

// PerfComparison measures IPC for each protection scheme on the cycle-level
// core over the given cycle budget per run.
func (e *Engine) PerfComparison(profiles []workload.Profile, cycles int64) ([]PerfRow, error) {
	rows := make([]PerfRow, len(profiles))
	err := par.Each(e.Workers, len(profiles), func(_, i int) error {
		p := profiles[i]
		return e.item(p.Name, func() error {
			prog, err := workload.CachedProgram(p)
			if err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
			row := PerfRow{Benchmark: p.Name}

			measure := func(mutate func(*pipeline.Config)) (float64, error) {
				cfg := pipeline.DefaultConfig()
				cfg.ITREnabled = false
				mutate(&cfg)
				cpu, err := pipeline.New(prog, cfg)
				if err != nil {
					return 0, err
				}
				return cpu.Run(cycles).IPC(), nil
			}

			if row.BaseIPC, err = measure(func(*pipeline.Config) {}); err != nil {
				return err
			}
			if row.ITRIPC, err = measure(func(c *pipeline.Config) { c.ITREnabled = true }); err != nil {
				return err
			}
			if row.DualDecodeIPC, err = measure(func(c *pipeline.Config) { c.Redundancy = pipeline.RedundancyDualDecode }); err != nil {
				return err
			}
			if row.TimeRedundantIPC, err = measure(func(c *pipeline.Config) { c.Redundancy = pipeline.RedundancyTimeRedundant }); err != nil {
				return err
			}
			rows[i] = row
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PerfTable renders the comparison with slowdown percentages.
func PerfTable(rows []PerfRow) *stats.Table {
	t := stats.NewTable("benchmark", "base IPC", "ITR IPC", "dual-decode IPC", "time-redundant IPC", "TR slowdown (%)")
	for _, r := range rows {
		slow := 0.0
		if r.BaseIPC > 0 {
			slow = 100 * (1 - r.TimeRedundantIPC/r.BaseIPC)
		}
		t.AddRow(r.Benchmark, r.BaseIPC, r.ITRIPC, r.DualDecodeIPC, r.TimeRedundantIPC, slow)
	}
	return t
}
