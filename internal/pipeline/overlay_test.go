package pipeline

import (
	"testing"

	"itr/internal/isa"
)

// mapOverlay is the reference store overlay: the same refcounted
// word-granular semantics as storeOverlay, kept in a Go map.
type mapOverlay struct {
	base  *isa.Memory
	words map[uint64]mapWord // 8-byte-aligned address -> speculative word
}

type mapWord struct {
	word uint64
	refs uint32
}

func newMapOverlay(base *isa.Memory) *mapOverlay {
	return &mapOverlay{base: base, words: make(map[uint64]mapWord)}
}

func (o *mapOverlay) Load(addr uint64, size uint8) uint64 {
	if size == 0 {
		return 0
	}
	addr &^= uint64(size) - 1
	w := o.base.Load(addr&^7, 8)
	if e, ok := o.words[addr&^7]; ok {
		w = e.word
	}
	shift := (addr & 7) * 8
	if size == 8 {
		return w
	}
	return w >> shift & (1<<(8*uint64(size)) - 1)
}

func (o *mapOverlay) Store(addr uint64, size uint8, v uint64) {
	if size == 0 {
		return
	}
	addr &^= uint64(size) - 1
	wa := addr &^ 7
	e, ok := o.words[wa]
	if !ok {
		e.word = o.base.Load(wa, 8)
	}
	shift := (addr & 7) * 8
	if size == 8 {
		e.word = v
	} else {
		m := uint64(1)<<(8*uint64(size)) - 1
		e.word = e.word&^(m<<shift) | (v&m)<<shift
	}
	e.refs++
	o.words[wa] = e
}

func (o *mapOverlay) commitStore(addr uint64) {
	wa := addr &^ 7
	e, ok := o.words[wa]
	switch {
	case !ok:
	case e.refs <= 1:
		delete(o.words, wa)
	default:
		e.refs--
		o.words[wa] = e
	}
}

// overlayRing is the ROB ring length the overlay tests size tables for: an
// 8-slot table.
const overlayRing = 4

// overlayPool holds aligned addresses whose home slots in an 8-slot table
// crowd its last slots: four hash to slot 7, two to slot 6 and two to slot 0,
// so probe runs wrap around the table's end and deletions shift entries back
// across it.
var overlayPool = func() []uint64 {
	o := newStoreOverlay(isa.NewMemory(), overlayRing)
	want := map[int]int{7: 4, 6: 2, 0: 2}
	var pool []uint64
	for wa := uint64(0x1000); len(pool) < 8; wa += 8 {
		if h := o.home(wa); want[h] > 0 {
			want[h]--
			pool = append(pool, wa)
		}
	}
	return pool
}()

// checkOverlay fails t unless o and ref hold the same number of entries and
// read the same word at every pool address.
func checkOverlay(t *testing.T, o *storeOverlay, ref *mapOverlay, step int) {
	t.Helper()
	if o.n != len(ref.words) {
		t.Fatalf("step %d: %d live entries, oracle holds %d", step, o.n, len(ref.words))
	}
	for _, wa := range overlayPool {
		if got, want := o.Load(wa, 8), ref.Load(wa, 8); got != want {
			t.Fatalf("step %d: word %#x reads %#x, oracle %#x", step, wa, got, want)
		}
	}
}

// FuzzStoreOverlay runs Store, Load, commitStore, Reset and a
// snapshot/restore of the live entries on the open-addressed overlay and on
// the map oracle, over addresses that collide and wrap around the table, and
// requires the two to read alike after every step. As in the pipeline, at
// most overlayRing distinct words are in flight at once.
func FuzzStoreOverlay(f *testing.F) {
	// Fill slot 7's run (wrapping into slots 0-3), then commit its head so
	// the deletion shifts entries back across the table's end.
	f.Add([]byte{0, 0, 3, 0, 1, 3, 0, 2, 3, 0, 3, 3, 3, 0, 3, 5, 1, 3, 5, 2, 3, 6, 0, 0})
	f.Add([]byte{0, 4, 0, 0, 6, 1, 0, 4, 2, 4, 4, 2, 6, 0, 0, 7, 0, 0, 0, 5, 2, 135, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		base := isa.NewMemory()
		o := newStoreOverlay(base, overlayRing)
		ref := newMapOverlay(base)
		for step := 0; len(ops) >= 3; step++ {
			op, a, v := ops[0], ops[1], ops[2]
			ops = ops[3:]
			wa := overlayPool[int(a)%len(overlayPool)]
			size := uint8(1) << (v & 3)
			addr := wa + uint64(a>>4)&7
			val := uint64(v)*0x0101010101010101 ^ uint64(op)<<40
			switch op % 8 {
			case 0, 1, 2:
				if _, ok := ref.words[wa]; !ok && len(ref.words) == overlayRing {
					break // the ROB holds no more stores
				}
				o.Store(addr, size, val)
				ref.Store(addr, size, val)
			case 3, 4:
				// The store commits: committed memory takes it first.
				base.Store(addr, size, val)
				o.commitStore(addr)
				ref.commitStore(addr)
			case 5:
				if got, want := o.Load(addr, size), ref.Load(addr, size); got != want {
					t.Fatalf("step %d: Load(%#x, %d) = %#x, oracle %#x", step, addr, size, got, want)
				}
			case 6:
				// Restore the live entries into an overlay that holds
				// stale words of its own.
				next := newStoreOverlay(base, overlayRing)
				next.Store(overlayPool[int(v)%len(overlayPool)], 8, val)
				next.restore(o.live())
				o = next
			case 7:
				if op&0x80 != 0 {
					o.Reset()
					clear(ref.words)
				}
			}
			checkOverlay(t, o, ref, step)
		}
	})
}

// TestStoreOverlayGrows: more live words than the table was sized for
// double it rather than filling it, and every word stays readable.
func TestStoreOverlayGrows(t *testing.T) {
	base := isa.NewMemory()
	o := newStoreOverlay(base, overlayRing)
	ref := newMapOverlay(base)
	for i := uint64(0); i < 40; i++ {
		o.Store(0x2000+i*0x1008, 4, i)
		ref.Store(0x2000+i*0x1008, 4, i)
	}
	if len(o.slots) < 2*o.n {
		t.Fatalf("%d live entries in %d slots", o.n, len(o.slots))
	}
	for i := uint64(0); i < 40; i += 3 {
		o.commitStore(0x2000 + i*0x1008)
		ref.commitStore(0x2000 + i*0x1008)
	}
	checkOverlay(t, o, ref, 0)
	for wa := range ref.words {
		if got, want := o.Load(wa, 8), ref.Load(wa, 8); got != want {
			t.Fatalf("word %#x reads %#x, oracle %#x", wa, got, want)
		}
	}
}

// TestStoreOverlayRestoreAllocs: restoring a capture re-inserts its entries
// into the existing table without allocating.
func TestStoreOverlayRestoreAllocs(t *testing.T) {
	o := newStoreOverlay(isa.NewMemory(), overlayRing)
	for _, wa := range overlayPool[:overlayRing] {
		o.Store(wa, 8, wa)
	}
	live := o.live()
	if allocs := testing.AllocsPerRun(100, func() { o.restore(live) }); allocs != 0 {
		t.Fatalf("restore allocated %v times", allocs)
	}
	if o.n != overlayRing {
		t.Fatalf("%d entries after restore, want %d", o.n, overlayRing)
	}
}

// BenchmarkStoreOverlay measures the overlay on a dispatch-like stream over
// a ROB of 128: each step stores one word of a 24-word working set, loads
// one word it may hold and one it does not, and commits the store issued 96
// steps earlier. The map oracle runs the same stream.
func BenchmarkStoreOverlay(b *testing.B) {
	const window = 96
	type overlay struct {
		store  func(addr uint64, size uint8, v uint64)
		load   func(addr uint64, size uint8) uint64
		commit func(addr uint64)
	}
	run := func(b *testing.B, o overlay) {
		var sink uint64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o.store(0x8000+uint64(i%24)*8, 8, uint64(i))
			sink ^= o.load(0x8000+uint64(i*7%24)*8, 4)
			sink ^= o.load(0x9000+uint64(i%512)*8, 8)
			if i >= window {
				o.commit(0x8000 + uint64((i-window)%24)*8)
			}
		}
		_ = sink
	}
	b.Run("table", func(b *testing.B) {
		o := newStoreOverlay(isa.NewMemory(), 128)
		run(b, overlay{o.Store, o.Load, o.commitStore})
	})
	b.Run("map", func(b *testing.B) {
		o := newMapOverlay(isa.NewMemory())
		run(b, overlay{o.Store, o.Load, o.commitStore})
	})
}
