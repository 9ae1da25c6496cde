package core

import (
	"testing"
	"testing/quick"

	"itr/internal/cache"
	"itr/internal/trace"
)

func ev(pc uint64, n int) trace.Event {
	return trace.Event{StartPC: pc, Len: n, Sig: pc * 31}
}

func TestConfigString(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Entries: 1024, Assoc: 2}, "2-way/1024"},
		{Config{Entries: 256, Assoc: 1}, "dm/256"},
		{Config{Entries: 512, Assoc: cache.FullyAssociative}, "fa/512"},
	}
	for _, c := range cases {
		if got := c.cfg.String(); got != c.want {
			t.Errorf("%+v => %q, want %q", c.cfg, got, c.want)
		}
	}
}

func TestDefaultConfigIsPaperHeadline(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Entries != 1024 || cfg.Assoc != 2 {
		t.Fatalf("default config %+v; the paper's Sections 4-5 use 2-way/1024", cfg)
	}
}

func TestDesignSpaceIs18Points(t *testing.T) {
	ds := DesignSpace()
	if len(ds) != 18 {
		t.Fatalf("design space has %d points, want 18 (3 sizes x 6 assocs)", len(ds))
	}
	seen := make(map[string]bool)
	for _, cfg := range ds {
		if seen[cfg.String()] {
			t.Fatalf("duplicate config %s", cfg)
		}
		seen[cfg.String()] = true
		if _, err := cfg.NewCache(); err != nil {
			t.Fatalf("config %s invalid: %v", cfg, err)
		}
	}
}

func TestCoverageAllHitsNoLoss(t *testing.T) {
	s, err := NewCoverageSim(Config{Entries: 16, Assoc: cache.FullyAssociative})
	if err != nil {
		t.Fatal(err)
	}
	// One trace repeating forever: one compulsory miss, then hits.
	for i := 0; i < 100; i++ {
		s.Access(ev(1, 8))
	}
	r := s.Result()
	if r.TotalInsts != 800 || r.Reads != 100 || r.Writes != 1 {
		t.Fatalf("totals: %+v", r)
	}
	if r.RecoveryLoss != 1.0 { // 8/800 from the compulsory miss
		t.Fatalf("recovery loss = %v, want 1.0", r.RecoveryLoss)
	}
	if r.DetectionLoss != 0 {
		t.Fatalf("detection loss = %v, want 0 (line never evicted)", r.DetectionLoss)
	}
}

func TestCoverageEvictionUnreferencedChargesDetection(t *testing.T) {
	s, err := NewCoverageSim(Config{Entries: 2, Assoc: cache.FullyAssociative})
	if err != nil {
		t.Fatal(err)
	}
	// Three distinct traces cycle: capacity 2, so every access misses and
	// every eviction is unreferenced.
	for i := 0; i < 30; i++ {
		s.Access(ev(uint64(i%3), 10))
	}
	r := s.Result()
	if r.RecoveryLoss != 100 {
		t.Fatalf("recovery loss = %v, want 100", r.RecoveryLoss)
	}
	// All evictions are unreferenced; 28 of 30 instances' lines get
	// evicted (2 remain resident and uncharged), so detection loss =
	// 280/300.
	if want := 100 * float64(280) / float64(300); r.DetectionLoss != want {
		t.Fatalf("detection loss = %v, want %v", r.DetectionLoss, want)
	}
}

func TestCoverageDetectionNeverExceedsRecovery(t *testing.T) {
	if err := quick.Check(func(pcs []uint8, lens []uint8) bool {
		s, err := NewCoverageSim(Config{Entries: 8, Assoc: 2})
		if err != nil {
			return false
		}
		for i, pc := range pcs {
			n := 5
			if i < len(lens) {
				n = int(lens[i]%16) + 1
			}
			s.Access(ev(uint64(pc%40), n))
		}
		r := s.Result()
		return r.DetectionLoss <= r.RecoveryLoss+1e-9
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCoverageLargerCacheNeverWorseRecovery(t *testing.T) {
	// Recovery loss counts misses; for the same fully-associative LRU
	// stream a larger cache has fewer misses (LRU inclusion property).
	streamGen := func(seed uint8) []trace.Event {
		var out []trace.Event
		for i := 0; i < 500; i++ {
			pc := uint64((i*int(seed+3) + i*i) % 60)
			out = append(out, ev(pc, 7))
		}
		return out
	}
	for seed := uint8(0); seed < 10; seed++ {
		small, _ := NewCoverageSim(Config{Entries: 16, Assoc: cache.FullyAssociative})
		big, _ := NewCoverageSim(Config{Entries: 64, Assoc: cache.FullyAssociative})
		for _, e := range streamGen(seed) {
			small.Access(e)
			big.Access(e)
		}
		if big.Result().RecoveryLoss > small.Result().RecoveryLoss+1e-9 {
			t.Fatalf("seed %d: bigger fa cache lost more recovery coverage", seed)
		}
	}
}

func TestCoverageMissFallbackRestoresRecovery(t *testing.T) {
	base, _ := NewCoverageSim(Config{Entries: 2, Assoc: cache.FullyAssociative})
	fb, _ := NewCoverageSim(Config{Entries: 2, Assoc: cache.FullyAssociative, MissFallback: true})
	for i := 0; i < 30; i++ {
		e := ev(uint64(i%3), 10)
		base.Access(e)
		fb.Access(e)
	}
	rb, rf := base.Result(), fb.Result()
	if rb.RecoveryLoss == 0 {
		t.Fatal("baseline should lose recovery coverage")
	}
	if rf.RecoveryLoss != 0 || rf.DetectionLoss != 0 {
		t.Fatalf("fallback still loses coverage: %+v", rf)
	}
	if rf.FallbackInsts != rb.TotalInsts {
		// Every access misses in this stream, so all instructions are
		// refetched.
		t.Fatalf("fallback insts = %d, want %d", rf.FallbackInsts, rb.TotalInsts)
	}
}

func TestCoverageReadsWritesForEnergyModel(t *testing.T) {
	s, _ := NewCoverageSim(Config{Entries: 16, Assoc: 2})
	for i := 0; i < 10; i++ {
		s.Access(ev(uint64(i%2), 5))
	}
	r := s.Result()
	if r.Reads != 10 {
		t.Fatalf("reads = %d, want one per dispatched trace", r.Reads)
	}
	if r.Writes != 2 {
		t.Fatalf("writes = %d, want one per miss install", r.Writes)
	}
}

func TestCoverageInvalidConfig(t *testing.T) {
	if _, err := NewCoverageSim(Config{Entries: 100, Assoc: 3}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestCoverageResultString(t *testing.T) {
	s, _ := NewCoverageSim(DefaultConfig())
	s.Access(ev(1, 5))
	if s.Result().String() == "" {
		t.Fatal("empty render")
	}
}

func TestCoverageWarmChargesNothing(t *testing.T) {
	s, err := NewCoverageSim(Config{Entries: 2, Assoc: cache.FullyAssociative})
	if err != nil {
		t.Fatal(err)
	}
	// Warm with a thrashing stream: no accounting.
	for i := 0; i < 30; i++ {
		s.Warm(ev(uint64(i%3), 10))
	}
	r := s.Result()
	if r.TotalInsts != 0 || r.DetectionLoss != 0 || r.RecoveryLoss != 0 {
		t.Fatalf("warm-up charged: %+v", r)
	}
	// After warm-up, the cache is populated: a hit costs nothing.
	s.Access(ev(2, 10)) // resident from warm-up
	r = s.Result()
	if r.RecoveryLoss != 0 {
		t.Fatalf("warm line missed: %+v", r)
	}
}

func TestCoverageWarmAvoidsColdStartCharge(t *testing.T) {
	cold, _ := NewCoverageSim(Config{Entries: 16, Assoc: cache.FullyAssociative})
	warm, _ := NewCoverageSim(Config{Entries: 16, Assoc: cache.FullyAssociative})
	stream := make([]trace.Event, 0, 200)
	for i := 0; i < 200; i++ {
		stream = append(stream, ev(uint64(i%8), 10))
	}
	for i, e := range stream {
		if i < 16 {
			warm.Warm(e)
		} else {
			warm.Access(e)
		}
		cold.Access(e)
	}
	if warm.Result().RecoveryLoss >= cold.Result().RecoveryLoss {
		t.Fatalf("warm-up did not remove cold-start misses: warm %.2f cold %.2f",
			warm.Result().RecoveryLoss, cold.Result().RecoveryLoss)
	}
	if warm.Result().RecoveryLoss != 0 {
		t.Fatalf("fully warm stream still lost coverage: %+v", warm.Result())
	}
}
