// Package simalloc implements a malloc-style heap allocator over a
// simulated 64-bit address space. It is the substrate every strategy in
// this repository allocates from: the baseline runs use it directly, and
// the HDS / HALO / PreFix strategies fall back to it for objects they do
// not capture.
//
// The allocator is a segregated free-list design in the spirit of dlmalloc:
//
//   - every block carries a 16-byte header (accounted, not stored — no real
//     memory backs the simulated space);
//   - payloads are 16-byte aligned;
//   - freed blocks are coalesced with free neighbours and indexed in
//     size-class bins; allocation is first-fit within the best bin
//     (address-ordered), which reproduces the address-reuse behaviour that
//     scatters hot objects between cold ones in real heaps — exactly the
//     phenomenon PreFix exists to fix;
//   - the heap grows by extending a contiguous break (sbrk-style).
//
// The bookkeeping is dense, so steady-state malloc/free allocates no host
// memory: blocks live in one slice and link their address-order
// neighbours by index, a two-level table indexed by payload offset maps
// an address to its block, and each bin is an address-ordered slice
// edited in place. Host memory grows only with the peak block count, the
// longest bin, and the break (one index leaf per 256 KiB of heap that
// holds a block start).
//
// The allocator also tracks the statistics the evaluation needs: live
// bytes, peak footprint (paper Table 6), and operation counts.
package simalloc

import (
	"fmt"

	"prefix/internal/mem"
	"prefix/internal/obs"
)

const (
	// HeaderSize models the per-block malloc metadata.
	HeaderSize = 16
	// Alignment of returned payload addresses.
	Alignment = 16
	// MinPayload is the smallest payload a block can hold; frees smaller
	// than this still occupy MinPayload bytes.
	MinPayload = 16
)

// numBins segregates free blocks by size class: bins 0..31 hold exact
// 16-byte multiples up to 512 bytes, later bins are logarithmic.
const numBins = 48

// Address lookup. Block starts are at least HeaderSize+MinPayload = 32
// bytes apart, so a payload's offset from the first possible payload,
// shifted right by slotShift, is a slot no other block shares. Slots are
// grouped in leaves of leafSlots entries (32 KiB, covering 256 KiB of
// heap), created only where a block starts; the top level holds one
// pointer per 256 KiB of break. A single huge block therefore costs 8
// bytes of index per 256 KiB it spans (2 MiB for a 64 GiB block), not a
// slot per 32 bytes.
const (
	slotShift = 5
	leafBits  = 13
	leafSlots = 1 << leafBits
)

// The slot scheme needs block starts at least 1<<slotShift bytes apart;
// this constant fails to compile (negative uint) if that stops holding.
const _ = uint(HeaderSize + MinPayload - 1<<slotShift)

// leaf maps the slots of one 256 KiB span to block indices (0: none).
type leaf [leafSlots]int32

// block is an allocated or free region of the simulated heap.
// Blocks partition the heap: every byte between heapStart and brk belongs
// to exactly one block.
type block struct {
	addr mem.Addr // payload address
	size uint64   // payload size (aligned)
	// prev and next are the address-order neighbours' indices in
	// Heap.blk (0: none). A recycled slot links the spare list by next.
	prev, next int32
	free       bool
}

// Heap is the simulated allocator. It is not safe for concurrent use; the
// machine layer serializes access (the simulation interleaves logical
// threads deterministically).
type Heap struct {
	heapStart mem.Addr
	brk       mem.Addr

	// blk holds every block; index 0 is a sentinel meaning "no block".
	// Slots of blocks merged away are recycled through the spare list.
	blk   []block
	spare int32 // head of the recycled-slot list, 0 when empty
	last  int32 // highest-addressed block, 0 when the heap is empty
	// top[t] holds the slots t<<leafBits up to the next leaf; nil where
	// no block has ever started.
	top []*leaf

	// bins hold free blocks' indices sorted by descending address, so
	// the lowest-addressed block, the one first-fit takes, is removed
	// from the end without moving the rest.
	bins [numBins][]int32

	stats Stats
}

// Stats summarizes allocator activity.
type Stats struct {
	Mallocs    uint64
	Frees      uint64
	Reallocs   uint64
	LiveBytes  uint64 // payload bytes currently allocated
	LiveBlocks uint64
	GrossBytes uint64 // payload + header bytes inside the break
	PeakBytes  uint64 // peak of GrossBytes: the paper's "peak memory"
	BrkExtends uint64
	Coalesces  uint64
	// FailedFrees counts Free calls, and Realloc calls with a non-nil
	// address, on an address that is not a live payload — never issued,
	// or already freed. Always a caller bug.
	FailedFrees uint64
}

// Fragmentation returns the share of the heap break not backing live
// payloads: (GrossBytes - LiveBytes) / GrossBytes, in [0,1]. An empty
// heap reports 0.
func (s Stats) Fragmentation() float64 {
	if s.GrossBytes == 0 {
		return 0
	}
	return float64(s.GrossBytes-s.LiveBytes) / float64(s.GrossBytes)
}

// Publish reports the heap's activity and footprint — live/gross/peak
// bytes, fragmentation, operation counts — into reg under the given label
// pairs. Nil-safe on a nil registry.
func (s Stats) Publish(reg *obs.Registry, kv ...string) {
	if reg == nil {
		return
	}
	reg.Counter("prefix_heap_mallocs_total", kv...).Add(s.Mallocs)
	reg.Counter("prefix_heap_frees_total", kv...).Add(s.Frees)
	reg.Counter("prefix_heap_reallocs_total", kv...).Add(s.Reallocs)
	reg.Counter("prefix_heap_brk_extends_total", kv...).Add(s.BrkExtends)
	reg.Counter("prefix_heap_coalesces_total", kv...).Add(s.Coalesces)
	reg.Counter("prefix_heap_failed_frees_total", kv...).Add(s.FailedFrees)
	reg.Gauge("prefix_heap_live_bytes", kv...).Set(float64(s.LiveBytes))
	reg.Gauge("prefix_heap_live_blocks", kv...).Set(float64(s.LiveBlocks))
	reg.Gauge("prefix_heap_gross_bytes", kv...).Set(float64(s.GrossBytes))
	reg.Gauge("prefix_heap_peak_bytes", kv...).Set(float64(s.PeakBytes))
	reg.Gauge("prefix_heap_fragmentation", kv...).Set(s.Fragmentation())
}

// New creates an empty heap whose break starts at base. Strategies place
// their private regions far from base so the address spaces never overlap.
func New(base mem.Addr) *Heap {
	if base == mem.NilAddr {
		base = 0x10000
	}
	return &Heap{heapStart: base, brk: base, blk: make([]block, 1)}
}

// Base returns the lowest address the heap manages.
func (h *Heap) Base() mem.Addr { return h.heapStart }

// Brk returns the current heap break (first unowned address).
func (h *Heap) Brk() mem.Addr { return h.brk }

// Stats returns a copy of the allocator statistics.
func (h *Heap) Stats() Stats { return h.stats }

// binFor returns the bin that files free blocks of the given size.
//
//prefix:hotpath
func binFor(size uint64) int {
	if size <= 512 {
		b := int(size / 16)
		if b >= 32 {
			b = 31
		}
		return b
	}
	// logarithmic bins above 512
	b := 32
	s := uint64(1024)
	for size > s && b < numBins-1 {
		s <<= 1
		b++
	}
	return b
}

// Malloc allocates size payload bytes and returns the payload address.
// A size of zero allocates MinPayload bytes, matching common mallocs that
// return distinct pointers for zero-byte requests.
//
//prefix:hotpath
func (h *Heap) Malloc(size uint64) mem.Addr {
	h.stats.Mallocs++
	size = mem.AlignUp(maxU64(size, MinPayload), Alignment)

	if i := h.takeFree(size); i != 0 {
		b := &h.blk[i]
		h.stats.LiveBytes += b.size
		h.stats.LiveBlocks++
		return b.addr
	}

	// Extend the break.
	payload := h.brk + HeaderSize
	h.linkAfter(h.last, h.newBlock(payload, size, false))
	h.brk = payload + mem.Addr(size)
	h.stats.BrkExtends++
	h.stats.GrossBytes += size + HeaderSize
	if h.stats.GrossBytes > h.stats.PeakBytes {
		h.stats.PeakBytes = h.stats.GrossBytes
	}
	h.stats.LiveBytes += size
	h.stats.LiveBlocks++
	return payload
}

// takeFree pops the lowest-addressed free block that fits size from the
// first bin holding one, splitting it when the remainder can hold
// another block. It returns the block's index, 0 when no free block fits.
//
//prefix:hotpath
func (h *Heap) takeFree(size uint64) int32 {
	for bin := binFor(size); bin < numBins; bin++ {
		list := h.bins[bin]
		for j := len(list) - 1; j >= 0; j-- {
			i := list[j]
			if h.blk[i].size < size {
				continue
			}
			copy(list[j:], list[j+1:])
			h.bins[bin] = list[:len(list)-1]
			b := &h.blk[i]
			b.free = false
			// Split if worthwhile.
			if b.size >= size+HeaderSize+MinPayload {
				rem := b.size - size - HeaderSize
				b.size = size
				h.linkAfter(i, h.newBlock(b.addr+mem.Addr(size)+HeaderSize, rem, true))
				h.pushFree(h.blk[i].next)
			}
			return i
		}
	}
	return 0
}

// binPos returns where addr belongs in a bin sorted by descending
// address: the number of entries above it.
//
//prefix:hotpath
func (h *Heap) binPos(list []int32, addr mem.Addr) int {
	lo, hi := 0, len(list)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if h.blk[list[m]].addr > addr {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// pushFree files free block i in its bin, keeping the bin address-ordered
// so reuse is lowest-address-first, the behaviour that interleaves
// recycled hot slots with cold data.
//
//prefix:hotpath
func (h *Heap) pushFree(i int32) {
	b := &h.blk[i]
	bin := binFor(b.size)
	list := h.bins[bin]
	k := h.binPos(list, b.addr)
	//lint:ignore hotalloc amortized: a bin grows only past its longest length so far, then edits in place
	list = append(list, 0)
	copy(list[k+1:], list[k:])
	list[k] = i
	h.bins[bin] = list
}

// removeFree takes free block i out of its bin.
//
//prefix:hotpath
func (h *Heap) removeFree(i int32) {
	b := &h.blk[i]
	bin := binFor(b.size)
	list := h.bins[bin]
	k := h.binPos(list, b.addr)
	copy(list[k:], list[k+1:])
	h.bins[bin] = list[:len(list)-1]
}

// Free releases the block at addr. Freeing an address the heap does not
// own returns false (callers treat that as a bug in the workload).
//
//prefix:hotpath
func (h *Heap) Free(addr mem.Addr) bool {
	i := h.lookup(addr)
	if i == 0 || h.blk[i].free {
		h.stats.FailedFrees++
		return false
	}
	b := &h.blk[i]
	h.stats.Frees++
	h.stats.LiveBytes -= b.size
	h.stats.LiveBlocks--
	b.free = true
	h.coalesce(i)
	return true
}

// coalesce merges block i with free neighbours and files the result in a
// bin. No two neighbours are ever both free, so there is at most one
// merge on each side.
//
//prefix:hotpath
func (h *Heap) coalesce(i int32) {
	if n := h.blk[i].next; n != 0 && h.blk[n].free {
		h.removeFree(n)
		h.blk[i].size += h.blk[n].size + HeaderSize
		h.unlink(n)
		h.stats.Coalesces++
	}
	if p := h.blk[i].prev; p != 0 && h.blk[p].free {
		h.removeFree(p)
		h.blk[p].size += h.blk[i].size + HeaderSize
		h.unlink(i)
		h.stats.Coalesces++
		h.pushFree(p)
		return
	}
	h.pushFree(i)
}

// Realloc resizes the block at addr to newSize, returning the (possibly
// moved) payload address and the number of payload bytes preserved. A nil
// addr behaves like Malloc.
//
//prefix:hotpath
func (h *Heap) Realloc(addr mem.Addr, newSize uint64) (mem.Addr, uint64) {
	h.stats.Reallocs++
	if addr == mem.NilAddr {
		return h.Malloc(newSize), 0
	}
	i := h.lookup(addr)
	if i == 0 || h.blk[i].free {
		h.stats.FailedFrees++
		return h.Malloc(newSize), 0
	}
	newSize = mem.AlignUp(maxU64(newSize, MinPayload), Alignment)
	old := h.blk[i].size
	if newSize <= old {
		return addr, newSize // shrink in place (no block split for simplicity)
	}
	na := h.Malloc(newSize)
	h.Free(addr)
	return na, old
}

// SizeOf returns the payload size of the live block at addr, or 0 if addr
// is not a live payload address.
func (h *Heap) SizeOf(addr mem.Addr) uint64 {
	i := h.lookup(addr)
	if i == 0 || h.blk[i].free {
		return 0
	}
	return h.blk[i].size
}

// Owns reports whether addr is a payload address the heap has ever issued
// and that is currently live.
func (h *Heap) Owns(addr mem.Addr) bool {
	i := h.lookup(addr)
	return i != 0 && !h.blk[i].free
}

// slot returns the lookup slot of a payload address inside the break.
//
//prefix:hotpath
func (h *Heap) slot(addr mem.Addr) uint64 {
	return uint64(addr-h.heapStart-HeaderSize) >> slotShift
}

// lookup returns the index of the block whose payload starts at addr, or
// 0 when no block does.
//
//prefix:hotpath
func (h *Heap) lookup(addr mem.Addr) int32 {
	if addr < h.heapStart+HeaderSize || addr >= h.brk {
		return 0
	}
	s := h.slot(addr)
	if t := s >> leafBits; t < uint64(len(h.top)) {
		if l := h.top[t]; l != nil {
			if i := l[s%leafSlots]; i != 0 && h.blk[i].addr == addr {
				return i
			}
		}
	}
	return 0
}

// setSlot points addr's lookup slot at block i (0 clears it), creating
// the slot's leaf on first use.
//
//prefix:hotpath
func (h *Heap) setSlot(addr mem.Addr, i int32) {
	s := h.slot(addr)
	t := int(s >> leafBits)
	if t >= cap(h.top) {
		// Grow by hand: append(s, make(...)...) can build the extension
		// as a temporary, doubling what a huge jump in the break costs.
		//lint:ignore hotalloc amortized: the top level grows only with the break
		top := make([]*leaf, t+1, max(t+1, 2*cap(h.top)))
		copy(top, h.top)
		h.top = top
	} else if t >= len(h.top) {
		h.top = h.top[:t+1]
	}
	l := h.top[t]
	if l == nil {
		//lint:ignore hotalloc one leaf per 256 KiB span that ever holds a block start, never freed
		l = new(leaf)
		h.top[t] = l
	}
	l[s%leafSlots] = i
}

// newBlock stores a new unlinked block, reusing a recycled slot when
// there is one, indexes it, and returns its index.
//
//prefix:hotpath
func (h *Heap) newBlock(addr mem.Addr, size uint64, free bool) int32 {
	i := h.spare
	if i != 0 {
		h.spare = h.blk[i].next
	} else {
		i = int32(len(h.blk))
		//lint:ignore hotalloc amortized: slots are recycled, so blk grows only past the peak block count
		h.blk = append(h.blk, block{})
	}
	h.blk[i] = block{addr: addr, size: size, free: free}
	h.setSlot(addr, i)
	return i
}

// linkAfter inserts block i after block p in address order (p == 0 when
// the heap is empty).
//
//prefix:hotpath
func (h *Heap) linkAfter(p, i int32) {
	if p == 0 {
		h.last = i
		return
	}
	n := h.blk[p].next
	h.blk[i].prev, h.blk[i].next = p, n
	h.blk[p].next = i
	if n != 0 {
		h.blk[n].prev = i
	} else {
		h.last = i
	}
}

// unlink removes block i, just merged into a neighbour, from the address
// order and the index, and recycles its slot.
//
//prefix:hotpath
func (h *Heap) unlink(i int32) {
	b := h.blk[i]
	if b.prev != 0 {
		h.blk[b.prev].next = b.next
	}
	if b.next != 0 {
		h.blk[b.next].prev = b.prev
	} else {
		h.last = b.prev
	}
	h.setSlot(b.addr, 0)
	h.blk[i] = block{next: h.spare}
	h.spare = i
}

// CheckInvariants validates internal consistency; tests call it after
// randomized operation sequences. It returns an error describing the first
// violation found. It checks that
//
//   - the blocks, linked in address order, tile [heapStart, brk) exactly,
//     with prev and next links mutually consistent;
//   - no two neighbouring blocks are both free;
//   - live bytes, live blocks and gross bytes match Stats;
//   - the index maps exactly the block starts, each to its own block;
//   - every free block is filed exactly once, in bin binFor(size), and
//     every bin is sorted by address and holds only free blocks.
func (h *Heap) CheckInvariants() error {
	// Walk down from the last block: each block must end where its
	// successor's header starts.
	cursor := h.brk
	var live, liveBlocks, nblocks, nfree uint64
	next := int32(0)
	for i := h.last; i != 0; next, i = i, h.blk[i].prev {
		b := &h.blk[i]
		nblocks++
		if nblocks >= uint64(len(h.blk)) {
			return fmt.Errorf("simalloc: block list has a cycle")
		}
		if b.next != next {
			return fmt.Errorf("simalloc: block %v links next %d, want %d", b.addr, b.next, next)
		}
		if b.addr+mem.Addr(b.size) != cursor {
			return fmt.Errorf("simalloc: block %v+%d does not end at %v", b.addr, b.size, cursor)
		}
		if !mem.IsAligned(uint64(b.addr), Alignment) {
			return fmt.Errorf("simalloc: block %v misaligned", b.addr)
		}
		if h.lookup(b.addr) != i {
			return fmt.Errorf("simalloc: index does not map block %v to itself", b.addr)
		}
		if b.free {
			nfree++
			if next != 0 && h.blk[next].free {
				return fmt.Errorf("simalloc: neighbouring blocks %v and %v are both free", b.addr, h.blk[next].addr)
			}
		} else {
			live += b.size
			liveBlocks++
		}
		cursor = b.addr - HeaderSize
	}
	if cursor != h.heapStart {
		return fmt.Errorf("simalloc: blocks start at %v, heap at %v", cursor, h.heapStart)
	}
	if live != h.stats.LiveBytes {
		return fmt.Errorf("simalloc: live bytes %d != stats %d", live, h.stats.LiveBytes)
	}
	if liveBlocks != h.stats.LiveBlocks {
		return fmt.Errorf("simalloc: live blocks %d != stats %d", liveBlocks, h.stats.LiveBlocks)
	}
	if gross := uint64(h.brk - h.heapStart); gross != h.stats.GrossBytes {
		return fmt.Errorf("simalloc: break spans %d bytes, stats gross %d", gross, h.stats.GrossBytes)
	}
	var spare uint64
	for i := h.spare; i != 0; i = h.blk[i].next {
		if spare++; spare >= uint64(len(h.blk)) {
			return fmt.Errorf("simalloc: spare list has a cycle")
		}
	}
	if nblocks+spare+1 != uint64(len(h.blk)) {
		return fmt.Errorf("simalloc: %d linked + %d spare slots, %d allocated", nblocks, spare, len(h.blk)-1)
	}
	var slots uint64
	for _, l := range h.top {
		if l == nil {
			continue
		}
		for _, i := range l {
			if i != 0 {
				slots++
			}
		}
	}
	if slots != nblocks {
		return fmt.Errorf("simalloc: index holds %d entries for %d blocks", slots, nblocks)
	}
	// Every entry is a free block of the bin's class, in strictly
	// descending address order, so no block is filed twice; matching the
	// free-block count means none is missing.
	var filed uint64
	for bin, list := range h.bins {
		for k, i := range list {
			if i <= 0 || int(i) >= len(h.blk) {
				return fmt.Errorf("simalloc: bin %d holds bad index %d", bin, i)
			}
			b := &h.blk[i]
			if !b.free {
				return fmt.Errorf("simalloc: bin %d holds allocated or recycled block %v", bin, b.addr)
			}
			if binFor(b.size) != bin {
				return fmt.Errorf("simalloc: block %v of size %d filed in bin %d, want %d", b.addr, b.size, bin, binFor(b.size))
			}
			if k > 0 && h.blk[list[k-1]].addr <= b.addr {
				return fmt.Errorf("simalloc: bin %d out of address order at %v", bin, b.addr)
			}
			filed++
		}
	}
	if filed != nfree {
		return fmt.Errorf("simalloc: %d free blocks, %d filed in bins", nfree, filed)
	}
	return nil
}

// maxU64 returns the larger of a and b.
//
//prefix:hotpath
func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
