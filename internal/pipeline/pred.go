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

// Predictor is the fetch unit's branch predictor: a BTB for target/identity
// and a gshare direction predictor.
type Predictor struct {
	btb        []btbEntry
	btbSets    int
	btbAssoc   int
	gshare     []uint8 // 2-bit counters
	historyLen uint
	history    uint64
	clock      uint64
}

type btbEntry struct {
	valid  bool
	tag    uint64
	target uint64
	uncond bool
	lru    uint64
}

// NewPredictor builds a predictor. btbEntries must be a power of two and
// divisible by btbAssoc; gshareBits sets the counter-table size (2^bits).
func NewPredictor(btbEntries, btbAssoc int, gshareBits uint) *Predictor {
	if btbEntries <= 0 {
		btbEntries = 1024
	}
	if btbAssoc <= 0 {
		btbAssoc = 2
	}
	if gshareBits == 0 {
		gshareBits = 12
	}
	return &Predictor{
		btb:        make([]btbEntry, btbEntries),
		btbSets:    btbEntries / btbAssoc,
		btbAssoc:   btbAssoc,
		gshare:     make([]uint8, 1<<gshareBits),
		historyLen: gshareBits,
	}
}

func (p *Predictor) btbSet(pc uint64) []btbEntry {
	set := int(pc) & (p.btbSets - 1)
	return p.btb[set*p.btbAssoc : (set+1)*p.btbAssoc]
}

// Predict returns the fetch unit's next-PC guess for the instruction at pc:
// predicted-taken branches redirect to the BTB target, everything else falls
// through. taken reports whether a redirect was predicted.
func (p *Predictor) Predict(pc uint64) (next uint64, taken bool) {
	for i := range p.btbSet(pc) {
		e := &p.btbSet(pc)[i]
		if e.valid && e.tag == pc {
			p.clock++
			e.lru = p.clock
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
	set := p.btbSet(pc)
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == pc {
			victim = i
			break
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].lru < set[victim].lru {
			victim = i
		}
	}
	p.clock++
	set[victim] = btbEntry{valid: true, tag: pc, target: target, uncond: uncond, lru: p.clock}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// clone returns a deep copy of the predictor (snapshot capture).
func (p *Predictor) clone() Predictor {
	q := *p
	q.btb = append([]btbEntry(nil), p.btb...)
	q.gshare = append([]uint8(nil), p.gshare...)
	return q
}

// copyFrom overwrites the predictor's state with src's, keeping the
// receiver's tables (snapshot restore). Geometries must match; Restore has
// already validated structural config equality.
func (p *Predictor) copyFrom(src *Predictor) {
	btb, gshare := p.btb, p.gshare
	*p = *src
	p.btb, p.gshare = btb, gshare
	copy(p.btb, src.btb)
	copy(p.gshare, src.gshare)
}
