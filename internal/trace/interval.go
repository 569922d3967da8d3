package trace

import (
	"prefix/internal/mem"
)

// intervalIndex maps live, non-overlapping address intervals to objects.
// Every access, allocation, free and realloc event of a trace goes
// through it, and a flat sorted slice made each allocation event cost a
// memmove of the whole live set: about a third of analysis CPU on traces
// with tens of thousands of live objects. So the index is a two-level
// sorted array (a depth-2 B+-tree): blocks of at most intervalBlock
// intervals, sorted by start and concatenating to the global order, plus
// firsts, each block's first start. Every operation binary-searches
// firsts, then the block; insert and remove shift at most intervalBlock
// entries. A full block splits in half and an empty block is dropped, so
// no block is ever empty.
//
// Semantics, including on malformed traces: inserting a start that is
// already present replaces its entry, size 0 is stored as 1, removing
// an address that is not a start is a no-op returning nil, and find
// returns the interval with the greatest start <= addr only if it
// contains addr.
type intervalIndex struct {
	firsts []mem.Addr // firsts[b] == blocks[b][0].start
	blocks [][]ivl
}

// intervalBlock is the block capacity: large enough that firsts stays
// small and cache-resident, small enough that a shift is a few cache
// lines.
const intervalBlock = 128

type ivl struct {
	start mem.Addr
	size  uint64
	obj   *Object
}

func newIntervalIndex() *intervalIndex { return &intervalIndex{} }

func (x *intervalIndex) insert(addr mem.Addr, size uint64, obj *Object) {
	if size == 0 {
		size = 1
	}
	e := ivl{start: addr, size: size, obj: obj}
	if len(x.blocks) == 0 {
		x.firsts = append(x.firsts, addr)
		x.blocks = append(x.blocks, append(make([]ivl, 0, intervalBlock), e))
		return
	}
	b := upperAddr(x.firsts, addr) - 1
	if b < 0 {
		b = 0 // before every start: goes to the front of block 0
	}
	blk := x.blocks[b]
	i := upperIvl(blk, addr)
	if i > 0 && blk[i-1].start == addr {
		blk[i-1] = e
		return
	}
	if len(blk) == intervalBlock {
		x.split(b)
		if i > intervalBlock/2 {
			b++
			i -= intervalBlock / 2
		}
		blk = x.blocks[b]
	}
	blk = append(blk, ivl{})
	copy(blk[i+1:], blk[i:])
	blk[i] = e
	x.blocks[b] = blk
	x.firsts[b] = blk[0].start
}

// split moves the upper half of the full block b into a new block b+1.
func (x *intervalIndex) split(b int) {
	blk := x.blocks[b]
	hi := append(make([]ivl, 0, intervalBlock), blk[intervalBlock/2:]...)
	clear(blk[intervalBlock/2:])
	x.blocks[b] = blk[:intervalBlock/2]
	x.blocks = append(x.blocks, nil)
	copy(x.blocks[b+2:], x.blocks[b+1:])
	x.blocks[b+1] = hi
	x.firsts = append(x.firsts, 0)
	copy(x.firsts[b+2:], x.firsts[b+1:])
	x.firsts[b+1] = hi[0].start
}

func (x *intervalIndex) remove(addr mem.Addr) *Object {
	b := upperAddr(x.firsts, addr) - 1
	if b < 0 {
		return nil
	}
	blk := x.blocks[b]
	i := upperIvl(blk, addr) - 1
	if blk[i].start != addr {
		return nil
	}
	obj := blk[i].obj
	copy(blk[i:], blk[i+1:])
	blk[len(blk)-1] = ivl{}
	blk = blk[:len(blk)-1]
	if len(blk) == 0 {
		x.blocks = append(x.blocks[:b], x.blocks[b+1:]...)
		x.firsts = append(x.firsts[:b], x.firsts[b+1:]...)
		return obj
	}
	x.blocks[b] = blk
	x.firsts[b] = blk[0].start
	return obj
}

// find returns the live object whose interval contains addr, or nil.
//
//prefix:hotpath
func (x *intervalIndex) find(addr mem.Addr) *Object {
	b := upperAddr(x.firsts, addr) - 1
	if b < 0 {
		return nil
	}
	blk := x.blocks[b]
	// blk[0].start == firsts[b] <= addr, so the floor is in blk.
	it := &blk[upperIvl(blk, addr)-1]
	if uint64(addr-it.start) < it.size {
		return it.obj
	}
	return nil
}

// upperAddr returns the number of entries of the sorted s that are <= addr.
//
//prefix:hotpath
func upperAddr(s []mem.Addr, addr mem.Addr) int {
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m] <= addr {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// upperIvl returns the number of intervals of the start-sorted blk whose
// start is <= addr.
//
//prefix:hotpath
func upperIvl(blk []ivl, addr mem.Addr) int {
	lo, hi := 0, len(blk)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if blk[m].start <= addr {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// len reports the number of live intervals.
func (x *intervalIndex) len() int {
	n := 0
	for _, blk := range x.blocks {
		n += len(blk)
	}
	return n
}
