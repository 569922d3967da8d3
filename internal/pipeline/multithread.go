package pipeline

import (
	"fmt"

	"prefix/internal/baselines"
	"prefix/internal/machine"
	"prefix/internal/obs"
	"prefix/internal/prefix"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

// MTResult is one point of the Figure 10 evaluation: the benchmark run
// with k threads under the baseline and under the best PreFix plan, and
// the relative improvement of modeled parallel time.
type MTResult struct {
	Threads        int
	BaselineCycles float64
	PreFixCycles   float64
	ImprovementPct float64 // positive = PreFix faster, the Figure 10 y-axis
	CallsAvoided   uint64
}

// RunMultithreaded reproduces the §3.3 multithreading experiment for one
// benchmark: the trace is collected once (single-threaded profiling run,
// default configuration), the plan is built once, and the optimized
// program is then run with each thread count. Only benchmarks whose
// program implements workloads.MultiThreaded are eligible.
func RunMultithreaded(name string, threadCounts []int, opt Options) ([]MTResult, error) {
	return RunMultithreadedJobs(name, threadCounts, opt, 1)
}

// RunMultithreadedJobs is RunMultithreaded with the thread-count sweep
// run on a bounded worker pool of `jobs` workers. Every thread count
// evaluates against the same read-only plan with its own machine group,
// and results are indexed by position in threadCounts, so the Figure 10
// series is identical at any job count.
func RunMultithreadedJobs(name string, threadCounts []int, opt Options, jobs int) ([]MTResult, error) {
	spec, err := workloads.Get(name)
	if err != nil {
		return nil, err
	}
	mt, ok := spec.Program.(workloads.MultiThreaded)
	if !ok {
		return nil, fmt.Errorf("pipeline: %s is not multithreaded", name)
	}
	// "The traces were collected only once from these benchmarks with the
	// number of threads set to the default value" (§3.3): profile with
	// the default thread count, then optimize once and evaluate at every
	// thread count.
	const defaultThreads = 4
	profScope := opt.Perf.Begin("profile")
	an := trace.NewAnalyzer()
	profGroup := machine.NewGroup(baselines.NewBaseline(opt.Cache.Cost), opt.Cache, defaultThreads, an)
	pcfg := spec.Profile
	pcfg.Threads = defaultThreads
	runGroup(mt, profGroup, pcfg, defaultThreads)
	profGroup.Finish()
	profScope.AddEvents(an.Stats().Events)
	analysis := an.Finish()
	profScope.End()
	if analysis.HeapAccesses == 0 {
		return nil, fmt.Errorf("pipeline: %s multithreaded profile has no heap accesses", name)
	}

	cfg := opt.Plan
	cfg.Benchmark = name
	cfg.Variant = prefix.VariantHot // mysql/mcf best configurations use Hot
	plan, _, err := prefix.BuildPlanFromHot(analysis, prefix.SelectHot(analysis, cfg), cfg)
	if err != nil {
		return nil, err
	}

	root := opt.Tracer.Start("multithreaded " + name)
	defer root.End()

	base := evalConfig(spec, opt)
	out := make([]MTResult, len(threadCounts))
	errs := runJobs(len(threadCounts), jobs, func(i int) error {
		k := threadCounts[i]
		ev := obs.JobEvent{Phase: "multithreaded", Benchmark: name, Job: i, Jobs: len(threadCounts), Seed: -1, Threads: k}
		return opt.instrumentJob(ev, func() error {
			wcfg := base
			wcfg.Threads = k
			span := root.Child(fmt.Sprintf("eval threads=%d", k))
			sc := opt.Perf.Begin("multithreaded").AttachSpan(span)
			defer sc.End()

			baseGroup := machine.NewGroup(baselines.NewBaseline(opt.Cache.Cost), opt.Cache, k, nil)
			runGroup(mt, baseGroup, wcfg, k)
			_, baseCycles, baseTotal := baseGroup.Finish()

			alloc := prefix.NewAllocator(plan, opt.Cache.Cost)
			optGroup := machine.NewGroup(alloc, opt.Cache, k, nil)
			runGroup(mt, optGroup, wcfg, k)
			_, optCycles, optTotal := optGroup.Finish()
			sc.AddEvents(baseTotal.Events() + optTotal.Events())

			if reg := opt.Metrics; reg != nil {
				threads := fmt.Sprint(k)
				kv := func(run string) []string {
					return append([]string{"benchmark", name, "run", run, "threads", threads}, opt.Labels...)
				}
				baseTotal.Publish(reg, kv("baseline")...)
				optTotal.Publish(reg, kv("prefix")...)
				alloc.Publish(reg, kv("prefix")...)
			}
			span.Set("threads", k)
			span.End()

			r := MTResult{
				Threads:        k,
				BaselineCycles: baseCycles,
				PreFixCycles:   optCycles,
				CallsAvoided:   alloc.Capture().CallsAvoided(),
			}
			if baseCycles > 0 {
				r.ImprovementPct = 100 * (baseCycles - optCycles) / baseCycles
			}
			out[i] = r
			return nil
		})
	})
	if err := joinErrors(errs, func(i int) string {
		return fmt.Sprintf("%s threads=%d", name, threadCounts[i])
	}); err != nil {
		return nil, err
	}
	return out, nil
}

func runGroup(mt workloads.MultiThreaded, g *machine.Group, cfg workloads.Config, k int) {
	envs := make([]machine.Env, k)
	for i := 0; i < k; i++ {
		envs[i] = g.Env(i)
	}
	mt.RunMT(envs, cfg)
}
