package core

import (
	"fmt"

	"itr/internal/cache"
	"itr/internal/trace"
)

// CoverageSim measures loss in fault detection coverage and fault recovery
// coverage for one ITR cache configuration, per Section 2.3 / Section 3:
//
//   - Every ITR cache *miss* enters an unchecked signature; a fault in that
//     (already committed) instance can only be detected later, after the
//     architectural state is corrupted. The instructions of every missing
//     instance are therefore charged to *recovery* coverage loss.
//   - If a missed instance's signature is *evicted before it is ever
//     referenced*, a fault in it would never be detected at all. Its
//     instructions are charged to *detection* coverage loss.
//
// Detection loss is a subset of recovery loss by construction.
type CoverageSim struct {
	cfg   Config
	cache *cache.Cache

	totalInsts       int64
	missInsts        int64 // instructions in trace instances that missed
	evictedLossInsts int64 // instructions of unreferenced evicted instances
	reads            int64 // ITR cache reads (one per measured instance)
	fallbackInsts    int64 // extra fetch/decode work done by MissFallback
	writes           int64 // ITR cache writes (installs)
}

// NewCoverageSim builds a coverage simulator for the given configuration.
func NewCoverageSim(cfg Config) (*CoverageSim, error) {
	cfg = cfg.normalize()
	c, err := cfg.NewCache()
	if err != nil {
		return nil, err
	}
	return &CoverageSim{cfg: cfg, cache: c}, nil
}

// Warm processes one dynamic trace instance without charging coverage
// accounting: the analog of the paper's 900M-instruction skip, used to bring
// the ITR cache to steady state before measurement begins. Lines installed
// during warm-up are marked referenced so their later eviction is not charged
// to the measured window.
func (s *CoverageSim) Warm(ev trace.Event) {
	if ln, hit := s.cache.Lookup(ev.StartPC); hit {
		ln.Checked = true
		return
	}
	ln, _, _ := s.cache.InsertGet(ev.StartPC, ev.Sig)
	// Charge nothing for warm-up instances: zero instruction weight and
	// pre-referenced, so a later unreferenced-eviction charge cannot
	// originate in the skipped region.
	ln.Aux = 0
	ln.Referenced = true
	ln.Parity = cache.Parity64(ev.Sig)
}

// Access processes one dynamic trace instance (fault-free stream).
func (s *CoverageSim) Access(ev trace.Event) {
	s.reads++
	s.totalInsts += int64(ev.Len)

	if ln, hit := s.cache.Lookup(ev.StartPC); hit {
		// The stream is fault-free, so signatures always match; a mismatch
		// indicates trace-formation breakage, which tests guard against.
		ln.Checked = true
		return
	}

	if s.cfg.MissFallback {
		// Extension (Section 3): redundantly fetch and decode the trace,
		// check the two signatures against each other, then install. The
		// instance is covered by conventional time redundancy, so it is
		// not charged to recovery loss.
		s.fallbackInsts += int64(ev.Len)
	} else {
		s.missInsts += int64(ev.Len)
	}

	ln, evicted, wasEvicted := s.cache.InsertGet(ev.StartPC, ev.Sig)
	s.writes++
	// Remember how many instructions the installing instance carried, so an
	// unreferenced eviction can be charged precisely.
	ln.Aux = uint64(ev.Len)
	ln.Parity = cache.Parity64(ev.Sig)
	if s.cfg.MissFallback {
		// The fallback check validated this instance, so the line is born
		// checked.
		ln.Checked = true
	}
	if wasEvicted && !evicted.Referenced && !s.cfg.MissFallback {
		s.evictedLossInsts += int64(evicted.Aux)
	}
}

// Result is the coverage outcome for one (benchmark, configuration) cell of
// the paper's Figures 6 and 7.
type Result struct {
	Config        Config
	TotalInsts    int64
	DetectionLoss float64 // % of dynamic instructions (Figure 6)
	RecoveryLoss  float64 // % of dynamic instructions (Figure 7)
	// FallbackInsts is the extra frontend work (instructions redundantly
	// fetched+decoded) performed when MissFallback is enabled.
	FallbackInsts int64
	// Reads and Writes are ITR cache access counts for the energy model
	// (Figure 9): one read per measured trace instance, one write per
	// measured install.
	Reads  int64
	Writes int64
}

// Result returns the accumulated coverage result.
func (s *CoverageSim) Result() Result {
	r := Result{
		Config:        s.cfg,
		TotalInsts:    s.totalInsts,
		FallbackInsts: s.fallbackInsts,
		Reads:         s.reads,
		Writes:        s.writes,
	}
	if s.totalInsts > 0 {
		r.DetectionLoss = 100 * float64(s.evictedLossInsts) / float64(s.totalInsts)
		r.RecoveryLoss = 100 * float64(s.missInsts) / float64(s.totalInsts)
	}
	return r
}

func (r Result) String() string {
	return fmt.Sprintf("%s: detection loss %.2f%%, recovery loss %.2f%% over %d insts",
		r.Config, r.DetectionLoss, r.RecoveryLoss, r.TotalInsts)
}
