package pipeline

import (
	"bytes"
	"reflect"
	"testing"

	"prefix/internal/hds"
	"prefix/internal/mem"
	"prefix/internal/prefix"
	"prefix/internal/workloads"
)

// TestPlanFromProfileMatchesFreshMining: planning from the profile's
// streams (mine once) must be indistinguishable from BuildPlanFromHot,
// which mines afresh per plan: the same plan JSON, Summary and ledger
// JSON for every registered benchmark, every variant and both miners.
func TestPlanFromProfileMatchesFreshMining(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles every benchmark")
	}
	opt := fastOpt()
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			spec, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := CollectProfile(spec, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, miner := range []prefix.Miner{prefix.MinerLCS, prefix.MinerSequitur} {
				for _, v := range opt.Variants {
					cfg := opt.Plan
					cfg.Benchmark, cfg.Variant, cfg.Miner = name, v, miner
					cfg.Ledger = prefix.NewLedger()
					plan, sum, err := planFromProfile(prof, cfg)
					if err != nil {
						t.Fatalf("miner %d %v from profile: %v", miner, v, err)
					}
					cfg.Ledger = prefix.NewLedger()
					wantPlan, wantSum, err := prefix.BuildPlanFromHot(prof.Analysis, prof.Hot, cfg)
					if err != nil {
						t.Fatalf("miner %d %v fresh: %v", miner, v, err)
					}
					if got, want := planJSON(t, plan), planJSON(t, wantPlan); !bytes.Equal(got, want) {
						t.Errorf("miner %d %v: plan JSON differs from a fresh BuildPlanFromHot", miner, v)
					}
					if got, want := ledgerJSON(t, sum.Ledger), ledgerJSON(t, wantSum.Ledger); !bytes.Equal(got, want) {
						t.Errorf("miner %d %v: ledger JSON differs from a fresh BuildPlanFromHot", miner, v)
					}
					sum.Ledger, wantSum.Ledger = nil, nil
					if !reflect.DeepEqual(sum, wantSum) {
						t.Errorf("miner %d %v: Summary differs from a fresh BuildPlanFromHot", miner, v)
					}
				}
			}
		})
	}
}

// TestCompareStrategiesLeavesStreamsIntact: compareStrategies hands the
// profile's stream slices to the HDS and HALO baselines and to every
// variant's plan; none of them may modify the shared streams.
func TestCompareStrategiesLeavesStreamsIntact(t *testing.T) {
	spec, err := workloads.Get("mcf")
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOpt()
	prof, err := CollectProfile(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.StreamsLCS) < 2 || len(prof.StreamsSequitur) < 2 {
		t.Fatalf("mcf mined %d LCS and %d Sequitur streams; the check needs several of each",
			len(prof.StreamsLCS), len(prof.StreamsSequitur))
	}
	lcs, seq := cloneStreams(prof.StreamsLCS), cloneStreams(prof.StreamsSequitur)
	if _, err := compareStrategies(spec, opt, prof, nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prof.StreamsLCS, lcs) {
		t.Error("compareStrategies modified the profile's LCS streams")
	}
	if !reflect.DeepEqual(prof.StreamsSequitur, seq) {
		t.Error("compareStrategies modified the profile's Sequitur streams")
	}
}

func cloneStreams(streams []hds.Stream) []hds.Stream {
	out := make([]hds.Stream, len(streams))
	for i, s := range streams {
		out[i] = hds.Stream{Objects: append([]mem.ObjectID(nil), s.Objects...), Heat: s.Heat}
	}
	return out
}

func planJSON(t *testing.T, p *prefix.Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func ledgerJSON(t *testing.T, l *prefix.Ledger) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
