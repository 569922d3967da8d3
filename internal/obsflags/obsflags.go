// Package obsflags is the observability flag kit shared by every CLI.
// One Register call adds the common flags (-metrics-out, -trace-out,
// -cpuprofile, -memprofile, -v; optionally -serve), and one Start/Close
// pair owns their whole lifecycle — profile start/stop, registry and
// tracer construction, the obshttp server, and end-of-run file writes —
// so the four commands share a single implementation instead of copies.
package obsflags

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"prefix/internal/obs"
	"prefix/internal/obs/obshttp"
	"prefix/internal/obs/perfstat"
)

// Flags holds the parsed observability flag values.
type Flags struct {
	MetricsOut string
	TraceOut   string
	CPUProfile string
	MemProfile string
	Verbose    bool
	Serve      string
}

// Register adds the common observability flags to fs and returns the
// value struct (read after fs.Parse).
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write run metrics to this file (Prometheus text; .json extension selects JSON)")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a Chrome trace-event JSON of the pipeline phases (chrome://tracing, Perfetto)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a Go CPU profile of this process to the file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a Go heap profile of this process to the file")
	fs.BoolVar(&f.Verbose, "v", false, "print a phase-timing summary and per-phase host-cost table to stderr at the end of the run")
	return f
}

// RegisterServe additionally adds -serve (the live observability server;
// only the long-running harness commands register it).
func (f *Flags) RegisterServe(fs *flag.FlagSet) {
	fs.StringVar(&f.Serve, "serve", "", "serve live observability for the duration of the run on this address (e.g. :8080): /metrics, /status, /trace, /perf, /explain, /healthz, /debug/pprof")
}

// Session is the live observability state behind the flags. Metrics,
// Tracer, and Tracker are nil when nothing asked for them, matching the
// pipeline's nil-safe no-op convention.
type Session struct {
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	Tracker *obs.JobTracker
	// Perf is the host-cost sampler. Unlike the other members it is
	// always created: its per-scope cost is two runtime probes, the -v
	// table and the /perf endpoint read from it, and when Metrics is
	// live it publishes the prefix_perf_* series there too.
	Perf *perfstat.Collector
	// Explain backs the /explain endpoint; created only when -serve is
	// live (the CLIs hand it to the pipeline, which fills it per
	// benchmark when attribution is on).
	Explain *obs.ExplainStore

	flags   *Flags
	cpuFile *os.File
	server  *obshttp.Server
	stderr  io.Writer
}

// Start builds the session: creates the registry/tracer any flag needs,
// starts the CPU profile, and brings up the -serve server (which always
// gets a registry, tracer, and job tracker so every endpoint is live).
func (f *Flags) Start() (*Session, error) {
	s := &Session{flags: f, stderr: os.Stderr}
	if f.MetricsOut != "" || f.Serve != "" {
		s.Metrics = obs.NewRegistry()
	}
	if f.TraceOut != "" || f.Verbose || f.Serve != "" {
		s.Tracer = obs.NewTracer()
	}
	s.Perf = perfstat.New(s.Metrics)
	if f.Serve != "" {
		s.Tracker = obs.NewJobTracker()
		s.Explain = obs.NewExplainStore()
		srv, err := obshttp.Serve(f.Serve, obshttp.Config{
			Registry: s.Metrics,
			Tracer:   s.Tracer,
			Tracker:  s.Tracker,
			Perf:     s.Perf,
			Explain:  s.Explain,
		})
		if err != nil {
			return nil, err
		}
		s.server = srv
		fmt.Fprintf(s.stderr, "observability server listening on http://%s\n", srv.Addr())
	}
	if f.CPUProfile != "" {
		cf, err := os.Create(f.CPUProfile)
		if err != nil {
			s.shutdownServer()
			return nil, err
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			s.shutdownServer()
			return nil, err
		}
		s.cpuFile = cf
	}
	return s, nil
}

// Progress returns a pipeline progress callback that feeds the /status
// tracker with every event and prints running/failed events to stderr.
func (s *Session) Progress() func(obs.JobEvent) {
	return func(ev obs.JobEvent) {
		s.Tracker.Observe(ev)
		if ev.State == obs.JobFailed || ev.State == obs.JobRunning {
			fmt.Fprintln(s.stderr, ev)
		}
	}
}

// Close finalizes the session: stops the CPU profile, writes the heap
// profile, the metrics and trace files, prints the -v summary, and shuts
// the server down. Call it on every exit path (it runs once); the first
// error wins.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		keep(s.cpuFile.Close())
		s.cpuFile = nil
	}
	if f := s.flags.MemProfile; f != "" {
		keep(writeHeapProfile(f))
		s.flags.MemProfile = ""
	}
	if f := s.flags.MetricsOut; f != "" {
		if err := s.Metrics.WriteMetricsFile(f); err != nil {
			keep(err)
		} else {
			fmt.Fprintf(s.stderr, "metrics written to %s\n", f)
		}
		s.flags.MetricsOut = ""
	}
	if f := s.flags.TraceOut; f != "" {
		if err := s.Tracer.WriteTraceFile(f); err != nil {
			keep(err)
		} else {
			fmt.Fprintf(s.stderr, "phase trace written to %s\n", f)
		}
		s.flags.TraceOut = ""
	}
	if s.flags.Verbose {
		keep(s.Tracer.WriteSummary(s.stderr))
		keep(s.Perf.WriteTable(s.stderr))
		s.flags.Verbose = false
	}
	s.shutdownServer()
	return first
}

func (s *Session) shutdownServer() {
	if s.server != nil {
		_ = s.server.Shutdown()
		s.server = nil
	}
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	werr := pprof.WriteHeapProfile(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
