package prefix

import (
	"errors"
	"fmt"
	"sort"

	"prefix/internal/context"
	"prefix/internal/hds"
	"prefix/internal/hotness"
	"prefix/internal/layout"
	"prefix/internal/mem"
	"prefix/internal/obs"
	"prefix/internal/trace"
)

// Miner selects the hot-data-stream detector.
type Miner uint8

const (
	// MinerLCS is the paper's choice (§3.1).
	MinerLCS Miner = iota
	// MinerSequitur is the detector of the original HDS work, kept for
	// the ablation comparison.
	MinerSequitur
)

// PlanConfig controls planning.
type PlanConfig struct {
	Benchmark string
	Variant   Variant
	Hot       hotness.Config
	HDS       hds.Config
	Share     context.ShareConfig
	Miner     Miner
	// RecycleRatio is the allocs/max-live factor beyond which an
	// All-pattern counter is converted to a recycling ring (§2.4). 0
	// disables recycling.
	RecycleRatio float64
	// PromoteAll and PromoteMinAllocs control "all ids" site promotion:
	// a site whose selected-hot fraction reaches PromoteAll (and which
	// allocated at least PromoteMinAllocs objects) has all its instances
	// treated as hot. 0 disables promotion.
	PromoteAll       float64
	PromoteMinAllocs uint64
	// HybridContext enables the §2.2.2 hybrid mechanism: Fixed and
	// Regular counters additionally record each hot instance's profiled
	// call-stack signature, and the runtime requires both the id and the
	// signature to match before placing an object. All-id counters are
	// exempt (every instance is hot regardless of context).
	HybridContext bool
	// MaxRegionBytes caps the preallocated region ("the increase in the
	// program's memory footprint ... can be controlled by limiting the
	// size of the preallocated memory", §1). Recycling rings are kept —
	// they are small and bounded — and the static placement is truncated
	// from the end of the layout order (the coldest singletons) until it
	// fits. 0 means unlimited.
	MaxRegionBytes uint64
	// Trace, when non-nil, receives one child span per planning stage
	// (mining, reconstitution, context inference, recycling, slot
	// assignment) with per-stage counters attached. Purely observational:
	// it never influences the plan.
	Trace *obs.Span
	// Ledger, when non-nil, receives one Decision per planning choice —
	// classification reasons, sharing attempts, reconstitution actions,
	// recycling geometry, slot placements, budget truncation. Like Trace
	// it is purely observational and deterministic.
	Ledger *Ledger
}

// DefaultPlanConfig returns the configuration used across the evaluation.
func DefaultPlanConfig(benchmark string, v Variant) PlanConfig {
	hotCfg := hotness.DefaultConfig()
	// The planner prefers complete hot sets over a hard cap: recycling
	// and "all ids" classification both depend on seeing every hot
	// instance of a site, and region growth is bounded by recycling and
	// by the coverage threshold.
	hotCfg.MaxObjects = 0
	return PlanConfig{
		Benchmark:        benchmark,
		Variant:          v,
		Hot:              hotCfg,
		HDS:              hds.DefaultConfig(),
		Share:            context.DefaultShareConfig(),
		Miner:            MinerLCS,
		RecycleRatio:     4,
		PromoteAll:       0.8,
		PromoteMinAllocs: 8,
	}
}

// SelectHot performs hot-object selection plus "all ids" promotion per
// the configuration; BuildPlan uses it internally, and callers that need
// the same ground truth for baseline accounting call it directly.
func SelectHot(a *trace.Analysis, cfg PlanConfig) *hotness.Set {
	hot := hotness.Select(a, cfg.Hot)
	if cfg.PromoteAll > 0 {
		hot.PromoteSites(a, cfg.PromoteAll, cfg.PromoteMinAllocs)
	}
	return hot
}

var errNoHotObjects = errors.New("prefix: no hot objects found in profile")

// BuildPlan runs the full profile analysis of Figure 8 on an analyzed
// trace and produces a Plan plus the reporting Summary.
func BuildPlan(a *trace.Analysis, cfg PlanConfig) (*Plan, *Summary, error) {
	return BuildPlanFromHot(a, SelectHot(a, cfg), cfg)
}

// BuildPlanFromHot is BuildPlan with a caller-provided hot set (so one
// selection can be shared between PreFix planning and the baseline
// pollution accounting): MineHot followed by PlanFromStreams.
func BuildPlanFromHot(a *trace.Analysis, hot *hotness.Set, cfg PlanConfig) (*Plan, *Summary, error) {
	if len(hot.Objects) == 0 {
		return nil, nil, errNoHotObjects
	}
	ohds, refs := MineHot(a, hot, cfg)
	return PlanFromStreams(a, hot, ohds, refs, cfg)
}

// MineHot is the mining step of planning: it collapses the profile's
// reference string to the hot objects and mines it with cfg.Miner (see
// MineRefs). It returns the OHDS and the number of collapsed hot
// references it was mined from, the inputs of PlanFromStreams. An
// "hds-mining" child span goes to cfg.Trace.
func MineHot(a *trace.Analysis, hot *hotness.Set, cfg PlanConfig) ([]hds.Stream, int) {
	span := cfg.Trace.Child("hds-mining")
	refs := hds.CollapseRefs(a.Refs, hot.IDs)
	ohds := MineRefs(refs, hot, cfg.Miner, cfg.HDS)
	span.Set("refs", len(refs))
	span.Set("streams", len(ohds))
	span.End()
	return ohds, len(refs)
}

// MineRefs runs miner m over collapsed hot references and weighs the
// streams by their members' access counts in the hot set, producing the
// OHDS in the descending order of memory references Algorithm 1
// expects.
func MineRefs(refs []mem.ObjectID, hot *hotness.Set, m Miner, cfg hds.Config) []hds.Stream {
	var streams []hds.Stream
	switch m {
	case MinerSequitur:
		streams = hds.MineSequitur(refs, cfg)
	default:
		streams = hds.MineLCS(refs, cfg)
	}
	accesses := make(map[mem.ObjectID]uint64, len(hot.Objects))
	for _, o := range hot.Objects {
		accesses[o.ID] = o.Accesses
	}
	return hds.WeighByAccesses(streams, accesses)
}

// PlanFromStreams is planning after mining: layout reconstitution,
// context inference, recycling and slot assignment over an OHDS that
// cfg.Miner mined from refs collapsed hot references (MineHot's
// results, or a profile's streams mined the same way). It reads ohds
// and never modifies it, so one profile's streams can serve every
// variant.
func PlanFromStreams(a *trace.Analysis, hot *hotness.Set, ohds []hds.Stream, refs int, cfg PlanConfig) (*Plan, *Summary, error) {
	if len(hot.Objects) == 0 {
		return nil, nil, errNoHotObjects
	}
	minerName := "lcs"
	if cfg.Miner == MinerSequitur {
		minerName = "sequitur"
	}
	cfg.Ledger.Record(Decision{
		Stage: StageMining, Kind: "streams-mined", Counter: -1,
		Reason: fmt.Sprintf("%s miner found %d observed hot data streams over %d collapsed hot references",
			minerName, len(ohds), refs),
	})

	// --- Layout determination (Algorithm 1) -------------------------
	reconSpan := cfg.Trace.Child("reconstitution")
	recon := layout.Reconstitute(ohds)
	if err := recon.Validate(); err != nil {
		reconSpan.End()
		return nil, nil, err
	}
	reconSpan.Set("rhds", len(recon.RHDS))
	reconSpan.Set("singletons", len(recon.Singletons))
	reconSpan.End()
	if cfg.Ledger != nil {
		for _, st := range recon.Steps {
			cfg.Ledger.Record(Decision{
				Stage: StageReconstitution, Kind: "hds-" + st.Action, Counter: -1,
				Reason: fmt.Sprintf("OHDS[%d]: %s", st.Stream, st.Reason),
			})
		}
	}

	// Placement order by variant.
	hotOrder := make([]mem.ObjectID, 0, len(hot.Objects)) // allocation order
	for _, o := range hot.Objects {
		hotOrder = append(hotOrder, o.ID)
	}
	sort.Slice(hotOrder, func(i, j int) bool { return hotOrder[i] < hotOrder[j] })

	inStream := hds.Objects(recon.RHDS)
	var order []mem.ObjectID
	switch cfg.Variant {
	case VariantHot:
		order = hotOrder
	case VariantHDS:
		order = recon.Order() // streams then split singletons
	case VariantHDSHot:
		order = recon.Order()
		placed := make(map[mem.ObjectID]bool, len(order))
		for _, o := range order {
			placed[o] = true
		}
		for _, o := range hotOrder {
			if !placed[o] {
				order = append(order, o)
			}
		}
	default:
		return nil, nil, fmt.Errorf("prefix: unknown variant %v", cfg.Variant)
	}
	// The placement can only target hot objects.
	orderSet := make(map[mem.ObjectID]bool, len(order))
	filtered := order[:0]
	for _, o := range order {
		if hot.IDs[o] && !orderSet[o] {
			orderSet[o] = true
			filtered = append(filtered, o)
		}
	}
	order = filtered

	// --- Context determination (§2.2) --------------------------------
	// Identification is independent of the layout variant: every site
	// that allocates hot objects is instrumented, and patterns are
	// inferred over the full hot set. The variant only decides which
	// objects receive static slots; recycling applies to qualifying
	// counters under every variant ("all versions of PreFix perform the
	// same" on the recycling benchmarks, §3.3).
	ctxSpan := cfg.Trace.Child("context-inference")
	hotSites := make(map[mem.SiteID]bool)
	for site := range hot.PerSite {
		hotSites[site] = true
	}
	var allocs []context.AllocRecord
	for _, o := range a.Objects {
		if !hotSites[o.Site] {
			continue
		}
		allocs = append(allocs, context.AllocRecord{
			Site:   o.Site,
			Object: o.ID,
			Hot:    hot.IDs[o.ID],
		})
	}
	asn, err := context.BuildAssignment(allocs, cfg.Share)
	if err != nil {
		ctxSpan.End()
		return nil, nil, err
	}
	ctxSpan.Set("sites", len(hotSites))
	ctxSpan.Set("counters", len(asn.Counters))
	ctxSpan.End()
	if cfg.Ledger != nil {
		for _, sd := range asn.Trail {
			kind := "share-rejected"
			if sd.Accepted {
				kind = "share-accepted"
			}
			cfg.Ledger.Record(Decision{
				Stage: StageContext, Kind: kind, Counter: -1, Sites: sd.Sites, Reason: sd.Reason,
			})
		}
		for ci, c := range asn.Counters {
			cfg.Ledger.Record(Decision{
				Stage: StageContext, Kind: "counter-classified", Counter: ci, Sites: c.Sites,
				Reason: fmt.Sprintf("%s pattern over %d site(s): %s", c.Kind, len(c.Sites), c.Reason),
			})
		}
	}

	// --- Recycling decision (§2.4) ------------------------------------
	// Decide which counters become slot rings *before* assigning static
	// offsets, so recycled objects never consume static region space
	// (this is what lets leela/swissmap shrink their footprints).
	recycleSpan := cfg.Trace.Child("recycling")
	liveness := hotness.AnalyzeLiveness(a)
	type ringSpec struct {
		n        int
		slotSize uint64
	}
	rings := make(map[int]ringSpec) // assignment counter index -> ring
	recycledObj := make(map[mem.ObjectID]bool)
	if cfg.RecycleRatio <= 0 {
		cfg.Ledger.Record(Decision{
			Stage: StageRecycling, Kind: "recycling-disabled", Counter: -1,
			Reason: "recycling disabled by configuration (RecycleRatio 0)",
		})
	} else {
		for ci, c := range asn.Counters {
			if c.Kind != context.KindAll {
				continue // only all-ids counters can serve every instance from a ring
			}
			if why, ok := recyclable(c.Sites, liveness, cfg.RecycleRatio); !ok {
				cfg.Ledger.Record(Decision{
					Stage: StageRecycling, Kind: "ring-rejected", Counter: ci, Sites: c.Sites, Reason: why,
				})
				continue
			}
			n, slotSize := ringGeometry(c, a, liveness)
			if n <= 0 || slotSize == 0 {
				cfg.Ledger.Record(Decision{
					Stage: StageRecycling, Kind: "ring-rejected", Counter: ci, Sites: c.Sites,
					Reason: fmt.Sprintf("degenerate ring geometry (N=%d slot=%d B)", n, slotSize),
				})
				continue
			}
			rings[ci] = ringSpec{n: n, slotSize: slotSize}
			for _, obj := range c.HotIDs {
				recycledObj[obj] = true
			}
			cfg.Ledger.Record(Decision{
				Stage: StageRecycling, Kind: "ring-sized", Counter: ci, Sites: c.Sites,
				Size: uint64(n) * slotSize,
				Reason: fmt.Sprintf(
					"every site reaches allocs/max-live ratio %.3g; N=%d (peak simultaneously-live objects), slot=%d B (largest hot object) serve %d hot objects from %d B of ring space",
					cfg.RecycleRatio, n, slotSize, len(c.HotIDs), uint64(n)*slotSize),
			})
		}
	}
	recycleSpan.Set("rings", len(rings))
	recycleSpan.Set("recycled_objects", len(recycledObj))
	recycleSpan.End()

	// --- Slot assignment ----------------------------------------------
	slotSpan := cfg.Trace.Child("slot-assignment")
	staticOrder := make([]mem.ObjectID, 0, len(order))
	for _, id := range order {
		if !recycledObj[id] {
			staticOrder = append(staticOrder, id)
		}
	}
	sizes := make(map[mem.ObjectID]uint64, len(staticOrder))
	for _, id := range staticOrder {
		o := a.Object(id)
		sz := o.Size
		if o.FinalSize > sz {
			sz = o.FinalSize
		}
		sizes[id] = sz
	}
	if cfg.MaxRegionBytes > 0 {
		// Reserve ring space first, then truncate the static placement
		// (coldest-last layout order) to the remaining budget.
		var ringBytes uint64
		for _, r := range rings {
			ringBytes += uint64(r.n) * r.slotSize
		}
		budget := uint64(0)
		if cfg.MaxRegionBytes > ringBytes {
			budget = cfg.MaxRegionBytes - ringBytes
		}
		var used uint64
		cut := len(staticOrder)
		for i, id := range staticOrder {
			sz := mem.AlignUp(maxU64p(sizes[id], layout.Align), layout.Align)
			if used+sz > budget {
				cut = i
				break
			}
			used += sz
		}
		if cfg.Ledger != nil {
			for _, id := range staticOrder[cut:] {
				cfg.Ledger.Record(Decision{
					Stage: StagePlacement, Kind: "budget-truncated", Counter: -1,
					Sites: []mem.SiteID{a.Object(id).Site}, Object: id, Size: sizes[id],
					Reason: fmt.Sprintf(
						"region budget %d B (rings reserve %d B) exhausted after %d B; coldest tail of the layout order dropped",
						cfg.MaxRegionBytes, ringBytes, used),
				})
			}
		}
		staticOrder = staticOrder[:cut]
	}
	placement := layout.Assign(staticOrder, sizes)
	if err := placement.Validate(); err != nil {
		slotSpan.End()
		return nil, nil, err
	}
	slotSpan.Set("placed", len(placement.Offsets))
	slotSpan.Set("region_bytes", placement.Total)
	slotSpan.End()
	if cfg.Ledger != nil {
		// Where each placed object sits in the layout order and why: its
		// reconstituted stream position, singleton slot, or variant tail.
		why := make(map[mem.ObjectID]string, len(staticOrder))
		for i, s := range recon.RHDS {
			for j, o := range s.Objects {
				why[o] = fmt.Sprintf("position %d of reconstituted stream RHDS[%d] (stream order drives the next-line prefetcher)", j, i)
			}
		}
		for _, o := range recon.Singletons {
			why[o] = "hot singleton left over from stream splitting; placed after the streams"
		}
		for _, id := range staticOrder {
			w, ok := why[id]
			if !ok || cfg.Variant == VariantHot {
				w = "hot object placed in allocation order"
				if cfg.Variant == VariantHDSHot {
					w = "hot object outside every reconstituted stream; appended after the streams"
				}
			}
			cfg.Ledger.Record(Decision{
				Stage: StagePlacement, Kind: "slot-assigned", Counter: asn.SiteCounter[a.Object(id).Site],
				Sites: []mem.SiteID{a.Object(id).Site}, Object: id,
				Offset: placement.Offsets[id], Size: placement.Sizes[id], Reason: w,
			})
		}
	}

	plan := &Plan{
		Benchmark:   cfg.Benchmark,
		Variant:     cfg.Variant,
		SiteCounter: make(map[mem.SiteID]int),
		Order:       order,
	}
	regionEnd := placement.Total

	for ci, c := range asn.Counters {
		pc := PlanCounter{
			Sites: c.Sites,
			Kind:  c.Kind,
			Set:   c.Set,
			Start: c.Pattern.Start,
			Step:  c.Pattern.Step,
			Count: c.Pattern.Count,
		}
		if r, ok := rings[ci]; ok {
			pc.Recycle = &RecyclePlan{N: r.n, SlotSize: r.slotSize, Base: regionEnd}
			regionEnd += uint64(r.n) * r.slotSize
		} else {
			pc.SlotOf = make(map[mem.Instance]Slot)
			for id, obj := range c.HotIDs {
				if off, ok := placement.Offsets[obj]; ok {
					pc.SlotOf[id] = Slot{Offset: off, Size: placement.Sizes[obj]}
				}
			}
			if cfg.HybridContext && c.Kind != context.KindAll {
				pc.Sigs = make(map[mem.Instance]mem.StackSig, len(c.HotIDs))
				for id, obj := range c.HotIDs {
					pc.Sigs[id] = a.Object(obj).Stack
				}
			}
		}
		plan.Counters = append(plan.Counters, pc)
		for _, s := range c.Sites {
			plan.SiteCounter[s] = len(plan.Counters) - 1
		}
	}

	plan.RegionSize = regionEnd
	plan.PlacedObjects = len(placement.Offsets)
	for _, id := range order {
		if inStream[id] {
			if _, still := placement.Offsets[id]; still {
				plan.HDSObjects++
			}
		}
	}
	if err := plan.Validate(); err != nil {
		return nil, nil, err
	}

	hotInHDS := 0
	for id := range hot.IDs {
		if inStream[id] {
			hotInHDS++
		}
	}
	sum := &Summary{
		OHDS:        ohds,
		Recon:       recon,
		HotObjects:  len(hot.Objects),
		HotInHDS:    hotInHDS,
		CoveragePct: hot.CoveragePct(),
		Ledger:      cfg.Ledger,
	}
	return plan, sum, nil
}

func maxU64p(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func recyclable(sites []mem.SiteID, l hotness.Liveness, ratio float64) (string, bool) {
	for _, s := range sites {
		if !l.RecyclingCandidate(s, ratio) {
			return fmt.Sprintf(
				"site %d allocates %d objects with peak live %d — below the allocs/max-live ratio %.3g recycling needs",
				s, l.SiteAllocs[s], l.SiteMaxLive[s], ratio), false
		}
	}
	return "", true
}

// ringGeometry sizes a recycling ring: N = peak simultaneously-live
// objects across the counter's sites (so in the common case everything is
// served from the ring), slot size = largest hot object of the counter.
func ringGeometry(c *context.Counter, a *trace.Analysis, l hotness.Liveness) (int, uint64) {
	var n uint64
	for _, s := range c.Sites {
		n += l.SiteMaxLive[s]
	}
	var slot uint64
	for _, obj := range c.HotIDs {
		o := a.Object(obj)
		sz := o.Size
		if o.FinalSize > sz {
			sz = o.FinalSize
		}
		if sz > slot {
			slot = sz
		}
	}
	slot = mem.AlignUp(slot, layout.Align)
	return int(n), slot
}
