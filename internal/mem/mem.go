// Package mem defines the primitive types shared by every layer of the
// PreFix simulation stack: simulated virtual addresses, allocation-site
// identifiers, dynamic object identifiers, and call-stack signatures.
//
// The whole reproduction runs against a simulated 64-bit address space; no
// real memory backs the addresses. Only the addresses themselves matter,
// because cache behaviour, TLB behaviour and layout quality are all pure
// functions of the address stream.
package mem

import "fmt"

// Addr is a simulated 64-bit virtual address.
type Addr uint64

// SiteID identifies a static malloc site in the program text. Site ids are
// assigned by each workload and are stable across runs of that workload.
type SiteID uint32

// ObjectID identifies one dynamic heap object. Object ids are assigned in
// allocation order by the trace analyzer (first allocation = 1) and are
// unique for the lifetime of a trace even when the allocator reuses
// addresses.
type ObjectID uint64

// FuncID identifies a function for call-stack tracking.
type FuncID uint32

// StackSig is a hash signature of a dynamic call stack, as used by HALO to
// identify allocation contexts. Distinct stacks may collide, and — more
// importantly for the paper's argument — identical stacks are shared by
// many dynamic allocations, which is exactly the imprecision PreFix avoids.
type StackSig uint64

// Instance is the dynamic allocation instance number of an object within
// its malloc site: the n-th object allocated by site S has Instance n
// (1-based), matching the paper's "ObjectID = Counter + 1" convention.
type Instance uint64

// NilAddr is the zero address; it is never returned by an allocator.
const NilAddr Addr = 0

// Standard line/page geometry used across the simulation. The cache
// simulator is configurable, but the 64-byte line and 4 KiB page match the
// paper's evaluation machine.
const (
	LineSize  = 64
	PageSize  = 4096
	LineShift = 6
	PageShift = 12
)

// LineOf returns the cache-line number containing a.
func LineOf(a Addr) uint64 { return uint64(a) >> LineShift }

// PageOf returns the page number containing a.
func PageOf(a Addr) uint64 { return uint64(a) >> PageShift }

// AlignUp rounds n up to the next multiple of align. align must be a
// power of two.
//
//prefix:hotpath
func AlignUp(n, align uint64) uint64 {
	return (n + align - 1) &^ (align - 1)
}

// IsAligned reports whether n is a multiple of align (a power of two).
func IsAligned(n, align uint64) bool { return n&(align-1) == 0 }

func (a Addr) String() string     { return fmt.Sprintf("0x%x", uint64(a)) }
func (s SiteID) String() string   { return fmt.Sprintf("site%d", uint32(s)) }
func (o ObjectID) String() string { return fmt.Sprintf("obj%d", uint64(o)) }

// Range is a half-open address interval [Start, Start+Size).
type Range struct {
	Start Addr
	Size  uint64
}

// Contains reports whether a lies inside the range.
func (r Range) Contains(a Addr) bool {
	return a >= r.Start && uint64(a-r.Start) < r.Size
}

// End returns the first address past the range.
func (r Range) End() Addr { return r.Start + Addr(r.Size) }

// Overlaps reports whether two ranges share any address.
func (r Range) Overlaps(o Range) bool {
	return r.Start < o.End() && o.Start < r.End()
}
