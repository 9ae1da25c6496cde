package pipeline

import (
	"testing"

	"itr/internal/core"
	"itr/internal/detect"
	"itr/internal/obs"
)

// restoreMenu lists the configuration knobs FuzzRestore mutates. Each knob's
// first option leaves DefaultConfig as it is; every other option sets a
// non-default value, so two configs differ exactly when their choices do.
var restoreMenu = [][]func(*Config){
	{nil, func(c *Config) { c.ROBSize = 64 }},
	{nil, func(c *Config) { c.FetchQueue = 8 }},
	{nil, func(c *Config) { c.Detector = detect.NameRepTFD }, func(c *Config) { c.Detector = detect.NameDME }},
	{nil, func(c *Config) { c.DetectorOpts.ChunkTraces = 4 }, func(c *Config) { c.DetectorOpts.AddrOffset = 1 << 20 }},
	{nil, func(c *Config) { c.RenameITREnabled = true }},
	{nil, func(c *Config) { c.CheckpointEnabled = true }, func(c *Config) {
		c.CheckpointEnabled = true
		c.CheckpointIntervalCycles = 512
	}},
	{nil, func(c *Config) { c.Redundancy = RedundancyDualDecode }, func(c *Config) { c.Redundancy = RedundancyTimeRedundant }},
	{nil, func(c *Config) { c.ITR = core.Config{Entries: 256, Assoc: 4} }, func(c *Config) { c.ITREnabled = false }},
	// Policy and observability: Restore ignores these.
	{nil, func(c *Config) { c.ITRMode = core.ModeObserve }},
	{nil, func(c *Config) {
		c.Probe = &Probe{}
		c.Trace = obs.NewTracer(64).Ring("fuzz")
	}},
}

// restoreConfig decodes sel as one mixed-radix digit per restoreMenu knob.
func restoreConfig(sel uint64) Config {
	cfg := DefaultConfig()
	for _, knob := range restoreMenu {
		n := uint64(len(knob))
		if set := knob[sel%n]; set != nil {
			set(&cfg)
		}
		sel /= n
	}
	return cfg
}

// FuzzRestore restores a snapshot taken under one configuration into a CPU
// built under another, both drawn from restoreMenu, at a fuzzed capture
// point. Restore must return an error exactly when the configurations differ
// in anything other than ITRMode, Probe and Trace, and must never panic; when
// it succeeds, the resumed run must end in the Result of a straight run. The
// seed corpus lives in testdata/fuzz/FuzzRestore.
func FuzzRestore(f *testing.F) {
	p := loopProgram(f, 30, 20)
	f.Fuzz(func(t *testing.T, selSrc, selDst uint64, at uint16) {
		src, dst := restoreConfig(selSrc), restoreConfig(selDst)
		pilot, err := New(p, src)
		if err != nil {
			return // e.g. checkpointing without a detector
		}
		cpu, err := New(p, dst)
		if err != nil {
			return
		}
		const budget = 8_000
		pilot.RunUntilDecode(budget, int64(at%6_000))
		snap := pilot.Snapshot()

		a, b := src, dst
		a.ITRMode, a.Probe, a.Trace = 0, nil, nil
		b.ITRMode, b.Probe, b.Trace = 0, nil, nil
		err = cpu.Restore(snap)
		if (err != nil) != (a != b) {
			t.Fatalf("Restore error = %v, but structural mismatch = %v", err, a != b)
		}
		if err != nil {
			return
		}
		got := cpu.Run(budget - snap.Cycle)
		straight, err := New(p, dst)
		if err != nil {
			t.Fatal(err)
		}
		if want := straight.Run(budget); got != want {
			t.Fatalf("resumed run differs from straight run:\ngot  %+v\nwant %+v", got, want)
		}
	})
}
