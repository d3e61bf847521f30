package flash

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func testGeo() Geometry {
	return Geometry{Channels: 2, DiesPerChan: 2, BlocksPerDie: 4, PagesPerBlock: 8, PageSize: 512}
}

func newTestArray(t *testing.T, store bool) *Array {
	t.Helper()
	a, err := NewArray(testGeo(), DefaultTiming(), store)
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	return a
}

func TestGeometryMath(t *testing.T) {
	g := testGeo()
	if g.Dies() != 4 {
		t.Fatalf("Dies = %d, want 4", g.Dies())
	}
	if g.Blocks() != 16 {
		t.Fatalf("Blocks = %d, want 16", g.Blocks())
	}
	if g.Pages() != 128 {
		t.Fatalf("Pages = %d, want 128", g.Pages())
	}
	if g.TotalBytes() != 128*512 {
		t.Fatalf("TotalBytes = %d, want %d", g.TotalBytes(), 128*512)
	}
	if g.BlockBytes() != 8*512 {
		t.Fatalf("BlockBytes = %d, want %d", g.BlockBytes(), 8*512)
	}
}

func TestGeometryValidate(t *testing.T) {
	bad := []Geometry{
		{},
		{Channels: 1},
		{Channels: 1, DiesPerChan: 1, BlocksPerDie: 1, PagesPerBlock: 1, PageSize: 0},
		{Channels: -1, DiesPerChan: 1, BlocksPerDie: 1, PagesPerBlock: 1, PageSize: 512},
	}
	for i, g := range bad {
		if g.Validate() == nil {
			t.Errorf("case %d: Validate accepted invalid geometry %+v", i, g)
		}
	}
	if err := testGeo().Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	a := newTestArray(t, true)
	want := bytes.Repeat([]byte{0xAB}, 512)
	buf := append([]byte(nil), want...)
	if _, err := a.Program(0, Addr{Block: 3, Page: 0}, buf); err != nil {
		t.Fatalf("Program: %v", err)
	}
	// Program copies: callers reuse their buffers (region buffers, the f2fs
	// cleaner's block), so scribbling on it must not reach the stored page.
	for i := range buf {
		buf[i] = 0xEE
	}
	_, got, err := a.Read(0, Addr{Block: 3, Page: 0})
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read-back mismatch")
	}
}

// TestReadPageOutlivesErase pins the contract that lets Read hand out the
// stored page without copying it: a slice obtained before the block is
// erased and the same address programmed again still holds the old bytes,
// while a new Read sees the new ones. The holder keeps reading while the
// block cycles, so under -race a store that reused the buffer is a reported
// data race, not only a wrong byte.
func TestReadPageOutlivesErase(t *testing.T) {
	a := newTestArray(t, true)
	addr := Addr{Block: 2, Page: 0}
	old := bytes.Repeat([]byte{0x11}, 512)
	if _, err := a.Program(0, addr, old); err != nil {
		t.Fatalf("Program: %v", err)
	}
	_, held, err := a.Read(0, addr)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if !bytes.Equal(held, old) {
				t.Error("page held across Erase changed")
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for gen := byte(1); gen <= 50; gen++ {
		if _, err := a.Erase(0, addr.Block); err != nil {
			t.Fatalf("Erase: %v", err)
		}
		fresh := bytes.Repeat([]byte{0x11 + gen}, 512)
		if _, err := a.Program(0, addr, fresh); err != nil {
			t.Fatalf("re-Program: %v", err)
		}
		_, got, err := a.Read(0, addr)
		if err != nil {
			t.Fatalf("Read after re-Program: %v", err)
		}
		if !bytes.Equal(got, fresh) {
			t.Fatalf("generation %d: Read returned stale bytes", gen)
		}
	}
	close(stop)
	wg.Wait()
}

// TestReadDoesNotAllocate: Read returns the stored page (or the shared zero
// page), so a read costs no allocation with or without payloads.
func TestReadDoesNotAllocate(t *testing.T) {
	for _, store := range []bool{true, false} {
		a := newTestArray(t, store)
		if _, err := a.Program(0, Addr{}, bytes.Repeat([]byte{7}, 512)); err != nil {
			t.Fatalf("Program: %v", err)
		}
		mustProgram(t, a, Addr{Page: 1}) // no payload: the zero page
		for page := 0; page < 2; page++ {
			addr := Addr{Page: page}
			allocs := testing.AllocsPerRun(100, func() {
				if _, _, err := a.Read(0, addr); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("storeData=%v page %d: Read allocates %.0f objects per call, want 0", store, page, allocs)
			}
		}
	}
}

func TestMetadataOnlyReadsZeros(t *testing.T) {
	a := newTestArray(t, false)
	if _, err := a.Program(0, Addr{Block: 0, Page: 0}, bytes.Repeat([]byte{1}, 512)); err != nil {
		t.Fatalf("Program: %v", err)
	}
	_, got, err := a.Read(0, Addr{Block: 0, Page: 0})
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(got) != 512 || !bytes.Equal(got, make([]byte, 512)) {
		t.Fatal("metadata-only array should return zero-filled pages")
	}
}

func TestProgramNilDataAllowed(t *testing.T) {
	a := newTestArray(t, true)
	zeros := make([]byte, 512)
	// A payload-free page reads back as zeros whether its block holds no
	// payload at all, holds payload beside it, or held payload at the same
	// address before an erase.
	check := func(addr Addr) {
		t.Helper()
		if _, err := a.Program(0, addr, nil); err != nil {
			t.Fatalf("nil-data Program: %v", err)
		}
		_, got, err := a.Read(0, addr)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		if !bytes.Equal(got, zeros) {
			t.Fatalf("%v: nil-data page read back %d bytes, not a zero page", addr, len(got))
		}
	}
	check(Addr{})
	if _, err := a.Program(0, Addr{Page: 1}, bytes.Repeat([]byte{5}, 512)); err != nil {
		t.Fatalf("Program: %v", err)
	}
	check(Addr{Page: 2})
	if _, err := a.Erase(0, 0); err != nil {
		t.Fatalf("Erase: %v", err)
	}
	check(Addr{})
	check(Addr{Page: 1})
}

func TestProgramOutOfOrderRejected(t *testing.T) {
	a := newTestArray(t, true)
	if _, err := a.Program(0, Addr{Block: 0, Page: 1}, nil); !errors.Is(err, ErrProgramOrder) {
		t.Fatalf("out-of-order Program err = %v, want ErrProgramOrder", err)
	}
}

func TestProgramTwiceRejected(t *testing.T) {
	a := newTestArray(t, true)
	mustProgram(t, a, Addr{Block: 0, Page: 0})
	// Programming page 0 again: the write front moved, so it's an order error.
	if _, err := a.Program(0, Addr{Block: 0, Page: 0}, nil); err == nil {
		t.Fatal("reprogramming a page did not fail")
	}
}

func TestReadFreePageRejected(t *testing.T) {
	a := newTestArray(t, true)
	if _, _, err := a.Read(0, Addr{Block: 1, Page: 0}); !errors.Is(err, ErrReadFree) {
		t.Fatalf("read-free err = %v, want ErrReadFree", err)
	}
}

func TestReadInvalidPageAllowed(t *testing.T) {
	// Invalidated pages are still physically readable until erased; GC in
	// the layers above relies on reading pages it is about to migrate.
	a := newTestArray(t, true)
	mustProgram(t, a, Addr{Block: 0, Page: 0})
	if err := a.Invalidate(Addr{Block: 0, Page: 0}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Read(0, Addr{Block: 0, Page: 0}); err != nil {
		t.Fatalf("reading invalidated page: %v", err)
	}
}

func TestAddressRangeChecks(t *testing.T) {
	a := newTestArray(t, true)
	cases := []Addr{
		{Block: -1, Page: 0},
		{Block: 16, Page: 0},
		{Block: 0, Page: -1},
		{Block: 0, Page: 8},
	}
	for _, addr := range cases {
		if _, err := a.Program(0, addr, nil); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("Program(%v) err = %v, want ErrOutOfRange", addr, err)
		}
		if _, _, err := a.Read(0, addr); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("Read(%v) err = %v, want ErrOutOfRange", addr, err)
		}
	}
	if _, err := a.Erase(0, 99); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Erase(99) err = %v, want ErrOutOfRange", err)
	}
}

func TestWrongDataSizeRejected(t *testing.T) {
	a := newTestArray(t, true)
	if _, err := a.Program(0, Addr{}, []byte{1, 2, 3}); !errors.Is(err, ErrDataSize) {
		t.Fatalf("short-data Program err = %v, want ErrDataSize", err)
	}
}

func TestEraseFreesAndBumpsWear(t *testing.T) {
	a := newTestArray(t, true)
	for p := 0; p < 8; p++ {
		mustProgram(t, a, Addr{Block: 2, Page: p})
	}
	if a.ValidPages(2) != 8 {
		t.Fatalf("ValidPages = %d, want 8", a.ValidPages(2))
	}
	if _, err := a.Erase(0, 2); err != nil {
		t.Fatalf("Erase: %v", err)
	}
	if a.ValidPages(2) != 0 || a.WriteFront(2) != 0 {
		t.Fatal("erase did not reset block state")
	}
	if a.EraseCount(2) != 1 {
		t.Fatalf("EraseCount = %d, want 1", a.EraseCount(2))
	}
	if st, _ := a.State(Addr{Block: 2, Page: 0}); st != PageFree {
		t.Fatalf("page state after erase = %v, want PageFree", st)
	}
	// Block is programmable again from page 0.
	mustProgram(t, a, Addr{Block: 2, Page: 0})
}

func TestInvalidateMaintainsValidCount(t *testing.T) {
	a := newTestArray(t, true)
	for p := 0; p < 4; p++ {
		mustProgram(t, a, Addr{Block: 5, Page: p})
	}
	a.Invalidate(Addr{Block: 5, Page: 1})
	a.Invalidate(Addr{Block: 5, Page: 1}) // double-invalidate is a no-op
	a.Invalidate(Addr{Block: 5, Page: 3})
	if got := a.ValidPages(5); got != 2 {
		t.Fatalf("ValidPages = %d, want 2", got)
	}
}

func TestTimingDieSerialization(t *testing.T) {
	// Two programs to the same die must serialize; to different dies they
	// overlap. Blocks 0 and 4 share die 0 (16 blocks / 4 dies interleaved);
	// blocks 0 and 1 are on different dies.
	g := testGeo()
	a, _ := NewArray(g, DefaultTiming(), false)
	tm := DefaultTiming()

	d1, err := a.Program(0, Addr{Block: 0, Page: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := a.Program(0, Addr{Block: 4, Page: 0}, nil) // same die as block 0
	if err != nil {
		t.Fatal(err)
	}
	if d2 < d1+tm.ProgPage {
		t.Fatalf("same-die programs overlapped: first done %v, second done %v", d1, d2)
	}

	b, _ := NewArray(g, DefaultTiming(), false)
	e1, _ := b.Program(0, Addr{Block: 0, Page: 0}, nil)
	e2, err := b.Program(0, Addr{Block: 1, Page: 0}, nil) // different die & channel
	if err != nil {
		t.Fatal(err)
	}
	if e2 >= e1+tm.ProgPage {
		t.Fatalf("different-die programs fully serialized: %v then %v", e1, e2)
	}
}

func TestTimingMonotoneCompletion(t *testing.T) {
	a := newTestArray(t, false)
	done, err := a.Program(100*time.Microsecond, Addr{Block: 0, Page: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 100*time.Microsecond {
		t.Fatalf("completion %v not after arrival", done)
	}
}

func TestStatsCounters(t *testing.T) {
	a := newTestArray(t, true)
	mustProgram(t, a, Addr{Block: 0, Page: 0})
	a.Read(0, Addr{Block: 0, Page: 0})
	a.Erase(0, 0)
	if a.Programs.Load() != 1 || a.Reads.Load() != 1 || a.Erases.Load() != 1 {
		t.Fatalf("counters = P%d R%d E%d, want 1/1/1",
			a.Programs.Load(), a.Reads.Load(), a.Erases.Load())
	}
	if a.MaxEraseCount() != 1 || a.TotalErases() != 1 {
		t.Fatal("wear accounting wrong")
	}
}

// Property: programming all pages of any block in order always succeeds and
// leaves every page valid; a full erase cycle restores programmability.
func TestBlockLifecycleProperty(t *testing.T) {
	if err := quick.Check(func(blockSel uint8, cycles uint8) bool {
		a, _ := NewArray(testGeo(), DefaultTiming(), false)
		block := int(blockSel) % a.Geometry().Blocks()
		n := int(cycles)%3 + 1
		for c := 0; c < n; c++ {
			for p := 0; p < a.Geometry().PagesPerBlock; p++ {
				if _, err := a.Program(0, Addr{Block: block, Page: p}, nil); err != nil {
					return false
				}
			}
			if a.ValidPages(block) != a.Geometry().PagesPerBlock {
				return false
			}
			if _, err := a.Erase(0, block); err != nil {
				return false
			}
			if a.ValidPages(block) != 0 {
				return false
			}
		}
		return a.EraseCount(block) == uint32(n)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func mustProgram(t *testing.T, a *Array, addr Addr) {
	t.Helper()
	if _, err := a.Program(0, addr, nil); err != nil {
		t.Fatalf("Program(%v): %v", addr, err)
	}
}

// TestStripeBijective checks that the chunked stripe maps the linear page
// indices of a block group onto each physical page exactly once, for several
// chunk sizes including the degenerate per-page round-robin (ChunkPages 1)
// and the no-striping extreme (ChunkPages == PagesPerBlock).
func TestStripeBijective(t *testing.T) {
	const ppb = 8
	for _, chunk := range []int{1, 2, 4, 8} {
		s := Stripe{Blocks: 4, ChunkPages: chunk}
		if err := s.Validate(ppb); err != nil {
			t.Fatalf("Validate(chunk=%d): %v", chunk, err)
		}
		seen := make(map[Addr]int64)
		total := int64(s.Blocks * ppb)
		for p := int64(0); p < total; p++ {
			a := s.Addr(10, p)
			if a.Block < 10 || a.Block >= 10+s.Blocks {
				t.Fatalf("chunk=%d p=%d block %d outside group [10,%d)", chunk, p, a.Block, 10+s.Blocks)
			}
			if a.Page < 0 || a.Page >= ppb {
				t.Fatalf("chunk=%d p=%d page %d outside [0,%d)", chunk, p, a.Page, ppb)
			}
			if prev, dup := seen[a]; dup {
				t.Fatalf("chunk=%d p=%d maps to %v, already claimed by p=%d", chunk, p, a, prev)
			}
			seen[a] = p
		}
		if int64(len(seen)) != total {
			t.Fatalf("chunk=%d mapped %d distinct pages, want %d", chunk, len(seen), total)
		}
	}
}

// TestStripeSequentialWithinBlock checks that a sequential sweep of linear
// indices visits each block's pages in strictly increasing order — the
// property that lets a zone write program NAND pages in-order per block.
func TestStripeSequentialWithinBlock(t *testing.T) {
	const ppb = 16
	s := Stripe{Blocks: 4, ChunkPages: 2}
	last := make(map[int]int)
	for b := 0; b < s.Blocks; b++ {
		last[b] = -1
	}
	for p := int64(0); p < int64(s.Blocks*ppb); p++ {
		a := s.Addr(0, p)
		if a.Page != last[a.Block]+1 {
			t.Fatalf("p=%d block %d jumps page %d -> %d", p, a.Block, last[a.Block], a.Page)
		}
		last[a.Block] = a.Page
	}
}

// TestStripeChunkLocality checks the two halves of the striping bargain: a
// sub-chunk run stays on one block (one die — small writes serialize), while
// a run spanning k chunks touches k consecutive blocks (large writes
// parallelize across dies).
func TestStripeChunkLocality(t *testing.T) {
	s := Stripe{Blocks: 4, ChunkPages: 4}
	// Pages 0..3 are one chunk: all on the group's first block.
	for p := int64(0); p < 4; p++ {
		if a := s.Addr(0, p); a.Block != 0 {
			t.Fatalf("p=%d block %d, want 0 (single-chunk run must stay on one die)", p, a.Block)
		}
	}
	// A 16-page run covers 4 chunks: one per block.
	blocks := make(map[int]bool)
	for p := int64(0); p < 16; p++ {
		blocks[s.Addr(0, p).Block] = true
	}
	if len(blocks) != 4 {
		t.Fatalf("16-page run touched %d blocks, want 4", len(blocks))
	}
	// Chunk i lands on block i.
	for i := int64(0); i < 4; i++ {
		if a := s.Addr(0, i*4); a.Block != int(i) {
			t.Fatalf("chunk %d starts on block %d, want %d", i, a.Block, i)
		}
	}
}

// TestStripeChunkOneMatchesRoundRobin pins ChunkPages=1 to the historical
// per-page round-robin mapping, so configs that ask for it reproduce the old
// behavior exactly.
func TestStripeChunkOneMatchesRoundRobin(t *testing.T) {
	s := Stripe{Blocks: 4, ChunkPages: 1}
	for p := int64(0); p < 64; p++ {
		want := Addr{Block: int(p % 4), Page: int(p / 4)}
		if got := s.Addr(0, p); got != want {
			t.Fatalf("p=%d: got %v, want %v", p, got, want)
		}
	}
}

// TestStripeValidate covers the rejection cases.
func TestStripeValidate(t *testing.T) {
	cases := []struct {
		s   Stripe
		ppb int
		ok  bool
	}{
		{Stripe{Blocks: 4, ChunkPages: 2}, 8, true},
		{Stripe{Blocks: 1, ChunkPages: 8}, 8, true},
		{Stripe{Blocks: 0, ChunkPages: 2}, 8, false},  // no blocks
		{Stripe{Blocks: -1, ChunkPages: 2}, 8, false}, // negative blocks
		{Stripe{Blocks: 4, ChunkPages: 0}, 8, false},  // no chunk
		{Stripe{Blocks: 4, ChunkPages: 16}, 8, false}, // chunk > block
		{Stripe{Blocks: 4, ChunkPages: 3}, 8, false},  // does not divide
	}
	for _, c := range cases {
		err := c.s.Validate(c.ppb)
		if c.ok && err != nil {
			t.Errorf("Validate(%+v, ppb=%d) = %v, want nil", c.s, c.ppb, err)
		}
		if !c.ok && err == nil {
			t.Errorf("Validate(%+v, ppb=%d) = nil, want error", c.s, c.ppb)
		}
	}
}

// benchGeo is a 16 MiB array of the 4 KiB pages the devices use.
func benchGeo() Geometry {
	return Geometry{Channels: 2, DiesPerChan: 2, BlocksPerDie: 4, PagesPerBlock: 256, PageSize: 4096}
}

var benchModes = []struct {
	name  string
	store bool
}{{"payload", true}, {"metadata", false}}

// benchPage is where BenchmarkArrayRead leaves its result, so the call
// cannot be optimized away.
var benchPage []byte

// BenchmarkArrayProgram programs pages block after block, erasing each block
// before its second pass (one erase per 256 programs).
func BenchmarkArrayProgram(b *testing.B) {
	for _, mode := range benchModes {
		b.Run(mode.name, func(b *testing.B) {
			geo := benchGeo()
			a, err := NewArray(geo, DefaultTiming(), mode.store)
			if err != nil {
				b.Fatal(err)
			}
			var data []byte
			if mode.store {
				data = bytes.Repeat([]byte{0x5A}, geo.PageSize)
			}
			b.SetBytes(int64(geo.PageSize))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addr := Addr{Block: i / geo.PagesPerBlock % geo.Blocks(), Page: i % geo.PagesPerBlock}
				if addr.Page == 0 && i >= geo.Pages() {
					if _, err := a.Erase(0, addr.Block); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := a.Program(0, addr, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkArrayRead reads every page of a full array in turn.
func BenchmarkArrayRead(b *testing.B) {
	for _, mode := range benchModes {
		b.Run(mode.name, func(b *testing.B) {
			geo := benchGeo()
			a, err := NewArray(geo, DefaultTiming(), mode.store)
			if err != nil {
				b.Fatal(err)
			}
			data := bytes.Repeat([]byte{0x5A}, geo.PageSize)
			for i := 0; i < geo.Pages(); i++ {
				if _, err := a.Program(0, Addr{Block: i / geo.PagesPerBlock, Page: i % geo.PagesPerBlock}, data); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(geo.PageSize))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % geo.Pages()
				_, page, err := a.Read(0, Addr{Block: j / geo.PagesPerBlock, Page: j % geo.PagesPerBlock})
				if err != nil {
					b.Fatal(err)
				}
				benchPage = page
			}
		})
	}
}
