// Faultcampaign: run a scaled-down version of the paper's Section 4
// experiment on one benchmark — randomized single-bit decode-signal faults,
// golden-stream comparison, outcome classification — and print the
// Figure 8-style breakdown together with the per-field tally.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"itr"
	"itr/internal/fault"
)

func main() {
	bench, err := itr.BenchmarkByName("gap")
	if err != nil {
		log.Fatal(err)
	}

	cfg := itr.DefaultCampaign()
	cfg.Faults = 40                       // the paper uses 1000 per benchmark
	cfg.Experiment.WindowCycles = 120_000 // the paper observes 1M cycles
	cfg.Experiment.Verify = true          // confirm recoveries with the full protocol

	fmt.Printf("injecting %d single-bit decode-signal faults into %s...\n", cfg.Faults, bench.Name)
	start := time.Now()
	res, err := itr.InjectFaults(bench, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done in %v\n\n", time.Since(start).Round(time.Millisecond))

	fmt.Println("outcome breakdown (Figure 8 categories):")
	for _, cat := range fault.Categories() {
		if n := res.Counts[cat]; n > 0 {
			fmt.Printf("  %-12s %3d  (%.1f%%)\n", cat, n, res.Pct(cat))
		}
	}
	fmt.Printf("\nITR detected %.1f%% of injected faults (paper average: 95.4%%)\n", res.DetectedPct())
	if res.RecoveryAttempted > 0 {
		fmt.Printf("full-protocol verification: %d/%d recoverable detections recovered\n",
			res.RecoveryConfirmed, res.RecoveryAttempted)
	}

	fmt.Println("\ninjections by decode-signal field (Table 2):")
	fields := make([]string, 0, len(res.ByField))
	for f := range res.ByField {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	for _, f := range fields {
		fmt.Printf("  %-10s %d\n", f, res.ByField[f])
	}

	// Show one interesting detail record, if present: a fault that would
	// have been an SDC but was recovered.
	for _, d := range res.Details {
		if d.Category == fault.ITRSDCR {
			fmt.Printf("\nexample recovered SDC: decode event %d, bit %d (%s field)\n",
				d.Injection.DecodeIndex, d.Injection.Bit, d.Injection.Field())
			fmt.Printf("  without ITR: architectural state corrupted (golden divergence)\n")
			fmt.Printf("  with ITR:    recovered=%v, machine check=%v\n", d.RecoveredInFull, d.MachineCheck)
			break
		}
	}
}
