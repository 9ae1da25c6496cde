// Package pipeline implements a cycle-level out-of-order superscalar core in
// the style of the MIPS R10K, the substrate the paper evaluates ITR on.
//
// The model captures everything the paper's mechanisms interact with:
//
//   - a fetch unit with BTB + gshare direction prediction (so is_branch
//     faults create the Section 2.5 sequential-PC scenarios);
//   - a decode stage that produces the Table 2 signal vector, feeds ITR
//     signature generation, and is the fault-injection point;
//   - dispatch-order functional execution with speculative register files
//     and a store-buffer memory overlay (so ITR retry flushes can roll the
//     speculative state back to the committed state);
//   - a scheduler whose operand tracking is driven by the (possibly
//     corrupted) num_rsrc/num_rdst fields, so scheduling faults can deadlock
//     the machine and be caught by the watchdog;
//   - in-order commit with ITR ROB polling, flush-and-restart recovery,
//     machine checks, the sequential-PC check and a watchdog timer.
package pipeline

import (
	"fmt"
	"slices"

	"itr/internal/cache"
)

// Predictor is the fetch unit's branch predictor: a BTB for target/identity
// and a gshare direction predictor.
type Predictor struct {
	btb []btbEntry
	// btbLRU holds each BTB entry's recency stamp, parallel to btb: every
	// hit rewrites one, and keeping them out of the entries lets snapshot
	// captures share the BTB chunks that hits alone touched.
	btbLRU   []uint64
	btbSets  int
	btbAssoc int
	gshare   []uint8 // 2-bit counters
	history  uint64
	clock    uint64
	// synced is the BTB as last captured into or restored from: the base
	// the next capture shares unchanged chunks with.
	synced *cache.Chunks[btbEntry]
}

type btbEntry struct {
	tag    uint64
	target uint64
	valid  bool
	uncond bool
}

// maxGshareBits bounds the gshare table at 2^24 two-bit counters (16 MiB),
// far past the 4096-counter default; every snapshot copies the whole table.
const maxGshareBits = 24

// checkPredictorGeometry reports why NewPredictor cannot build a predictor
// of this geometry, or nil: the BTB's set count (btbEntries/btbAssoc) must
// be a power of two, since btbBase masks the PC with it, and gshareBits may
// not exceed maxGshareBits. It allocates nothing.
func checkPredictorGeometry(btbEntries, btbAssoc int, gshareBits uint) error {
	if btbAssoc <= 0 || btbEntries < btbAssoc || btbEntries%btbAssoc != 0 {
		return fmt.Errorf("BTB of %d entries cannot be %d-way", btbEntries, btbAssoc)
	}
	if sets := btbEntries / btbAssoc; sets&(sets-1) != 0 {
		return fmt.Errorf("BTB of %d entries, %d-way, has %d sets, not a power of two", btbEntries, btbAssoc, sets)
	}
	if gshareBits > maxGshareBits {
		return fmt.Errorf("gshare of %d index bits exceeds the %d-bit bound", gshareBits, maxGshareBits)
	}
	return nil
}

// NewPredictor builds a predictor of btbEntries entries in btbAssoc-way
// sets and a 2^gshareBits-counter gshare table. The geometry must pass
// checkPredictorGeometry, which New applies to its Config.
func NewPredictor(btbEntries, btbAssoc int, gshareBits uint) *Predictor {
	return &Predictor{
		btb:      make([]btbEntry, btbEntries),
		btbLRU:   make([]uint64, btbEntries),
		btbSets:  btbEntries / btbAssoc,
		btbAssoc: btbAssoc,
		gshare:   make([]uint8, 1<<gshareBits),
	}
}

// btbBase returns the index of the first way of pc's BTB set.
func (p *Predictor) btbBase(pc uint64) int {
	return (int(pc) & (p.btbSets - 1)) * p.btbAssoc
}

// Predict returns the fetch unit's next-PC guess for the instruction at pc:
// predicted-taken branches redirect to the BTB target, everything else falls
// through. taken reports whether a redirect was predicted.
func (p *Predictor) Predict(pc uint64) (next uint64, taken bool) {
	base := p.btbBase(pc)
	for i := base; i < base+p.btbAssoc; i++ {
		e := &p.btb[i]
		if e.valid && e.tag == pc {
			p.clock++
			p.btbLRU[i] = p.clock
			if e.uncond || p.direction(pc) {
				return e.target, true
			}
			return pc + 1, false
		}
	}
	return pc + 1, false
}

func (p *Predictor) gshareIndex(pc uint64) uint64 {
	return (pc ^ p.history) & (uint64(len(p.gshare)) - 1)
}

func (p *Predictor) direction(pc uint64) bool {
	return p.gshare[p.gshareIndex(pc)] >= 2
}

// Train updates the predictor with a resolved branch outcome. uncond marks
// unconditional transfers (always-taken BTB entries, no direction training).
func (p *Predictor) Train(pc, target uint64, taken, uncond bool) {
	if !uncond {
		idx := p.gshareIndex(pc)
		c := p.gshare[idx]
		if taken && c < 3 {
			p.gshare[idx] = c + 1
		} else if !taken && c > 0 {
			p.gshare[idx] = c - 1
		}
		p.history = (p.history << 1) | boolBit(taken)
	}
	if !taken {
		return
	}
	// Install/refresh the BTB entry for taken branches.
	base := p.btbBase(pc)
	victim := base
	for i := base; i < base+p.btbAssoc; i++ {
		if p.btb[i].valid && p.btb[i].tag == pc {
			victim = i
			break
		}
		if !p.btb[i].valid {
			victim = i
		} else if p.btb[victim].valid && p.btbLRU[i] < p.btbLRU[victim] {
			victim = i
		}
	}
	p.clock++
	p.btb[victim] = btbEntry{valid: true, tag: pc, target: target, uncond: uncond}
	p.btbLRU[victim] = p.clock
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// predictorState is an immutable capture of a Predictor's mutable state: the
// BTB as chunks shared with the predictor's previous sync point wherever
// they are unchanged, and flat copies of the recency stamps and gshare
// counters.
type predictorState struct {
	btb            *cache.Chunks[btbEntry]
	btbLRU         []uint64
	gshare         []uint8
	history, clock uint64
}

// capture returns the predictor's state for a snapshot, sharing the BTB
// chunks that are unchanged since the last sync point.
func (p *Predictor) capture() predictorState {
	p.synced = cache.CaptureChunks(p.btb, p.synced)
	return predictorState{
		btb:     p.synced,
		btbLRU:  slices.Clone(p.btbLRU),
		gshare:  slices.Clone(p.gshare),
		history: p.history,
		clock:   p.clock,
	}
}

// restore overwrites the predictor's state with s, keeping the receiver's
// tables (snapshot restore). Geometries must match; Restore has already
// validated structural config equality.
func (p *Predictor) restore(s *predictorState) {
	s.btb.CopyTo(p.btb)
	p.synced = s.btb
	copy(p.btbLRU, s.btbLRU)
	copy(p.gshare, s.gshare)
	p.history, p.clock = s.history, s.clock
}
