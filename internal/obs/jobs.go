package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// JobState is the lifecycle state of one parallel-harness job. A job is
// implicitly queued until its first event arrives.
type JobState string

const (
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// JobEvent is one structured state transition of a parallel-harness job:
// which phase of the evaluation it belongs to, which benchmark/seed/
// thread-count it evaluates, its index within the phase, and the state it
// just entered. The pipeline emits one running event when a job starts
// and one done or failed event when it finishes; the same struct backs
// the CLIs' stderr progress lines and the observability server's /status
// view.
type JobEvent struct {
	// Phase names the harness phase ("suite", "variance", "multithreaded").
	Phase     string `json:"phase"`
	Benchmark string `json:"benchmark"`
	// Job is the 0-based job index within the phase; Jobs the phase total.
	Job  int `json:"job"`
	Jobs int `json:"jobs"`
	// Seed is the 0-based seed index for variance-sweep jobs, -1 otherwise;
	// Seeds is the per-benchmark seed count of the sweep.
	Seed  int `json:"seed"`
	Seeds int `json:"seeds,omitempty"`
	// Threads is the evaluated thread count for multithreaded-sweep jobs.
	Threads int      `json:"threads,omitempty"`
	State   JobState `json:"state"`
	// Err carries the job's error text on a failed event.
	Err string `json:"err,omitempty"`
}

// String renders the event as one progress line, e.g.
// "[variance 7/20] mcf seed 3/10 running".
func (e JobEvent) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s %d/%d] %s", e.Phase, e.Job+1, e.Jobs, e.Benchmark)
	if e.Seed >= 0 {
		if e.Seeds > 0 {
			fmt.Fprintf(&b, " seed %d/%d", e.Seed+1, e.Seeds)
		} else {
			fmt.Fprintf(&b, " seed %d", e.Seed+1)
		}
	}
	if e.Threads > 0 {
		fmt.Fprintf(&b, " threads=%d", e.Threads)
	}
	if e.State != "" {
		b.WriteString(" " + string(e.State))
	}
	if e.Err != "" {
		b.WriteString(": " + e.Err)
	}
	return b.String()
}

// JobTracker folds a stream of JobEvents into a live status snapshot of
// the harness: per-job state with elapsed time, per-phase running/queued/
// done/failed counts, and an overall ETA. All methods are safe for
// concurrent use and nil-safe, matching the rest of the package.
type JobTracker struct {
	mu    sync.Mutex
	now   func() time.Time
	start time.Time
	jobs  map[jobKey]*trackedJob
	order []jobKey
}

// jobKey identifies one tracked job. The benchmark is part of the key
// so a phase that numbers its jobs per benchmark cannot have one
// benchmark's job overwrite another's; harness phases number jobs
// uniquely, so the extra field is inert for them.
type jobKey struct {
	phase     string
	benchmark string
	job       int
}

type trackedJob struct {
	ev      JobEvent
	started time.Time
	ended   time.Time // zero while running
}

// NewJobTracker returns a tracker on the wall clock.
func NewJobTracker() *JobTracker {
	return &JobTracker{now: wallClock, jobs: make(map[jobKey]*trackedJob)}
}

// SetClock replaces the tracker's time source (deterministic tests).
func (t *JobTracker) SetClock(now func() time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
}

// Observe records one event. Events for the same (phase, benchmark,
// job) update the job in place; the first event ever observed starts
// the run clock.
// No-op on a nil tracker, so it can sit unconditionally in a progress
// callback.
func (t *JobTracker) Observe(ev JobEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	if t.start.IsZero() {
		t.start = now
	}
	k := jobKey{ev.Phase, ev.Benchmark, ev.Job}
	j, ok := t.jobs[k]
	if !ok {
		j = &trackedJob{started: now}
		t.jobs[k] = j
		t.order = append(t.order, k)
	}
	j.ev = ev
	if ev.State != JobRunning {
		j.ended = now
	}
}

// JobStatus is one job's event plus its elapsed wall time (running jobs:
// time since start; finished jobs: total duration).
type JobStatus struct {
	JobEvent
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// PhaseStatus aggregates one phase's jobs. Queued is the phase's declared
// job total minus every job observed so far.
type PhaseStatus struct {
	Phase   string `json:"phase"`
	Total   int    `json:"total"`
	Queued  int    `json:"queued"`
	Running int    `json:"running"`
	Done    int    `json:"done"`
	Failed  int    `json:"failed"`
}

// Status is the full /status document.
type Status struct {
	Phases  []PhaseStatus `json:"phases"`
	Jobs    []JobStatus   `json:"jobs"`
	Total   int           `json:"total"`
	Queued  int           `json:"queued"`
	Running int           `json:"running"`
	Done    int           `json:"done"`
	Failed  int           `json:"failed"`
	// ElapsedSeconds is the time since the first observed event.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// ETASeconds extrapolates the mean finished-job rate over the
	// remaining (queued + running) jobs; 0 until a job has finished.
	ETASeconds float64 `json:"eta_seconds"`
}

// Status snapshots the tracker. Jobs appear in first-observation order;
// phases in the order their first job was observed. Zero on nil.
func (t *JobTracker) Status() Status {
	if t == nil {
		return Status{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var st Status
	now := t.now()
	if !t.start.IsZero() {
		st.ElapsedSeconds = now.Sub(t.start).Seconds()
	}
	phaseIdx := make(map[string]int)
	for _, k := range t.order {
		j := t.jobs[k]
		pi, ok := phaseIdx[k.phase]
		if !ok {
			pi = len(st.Phases)
			phaseIdx[k.phase] = pi
			st.Phases = append(st.Phases, PhaseStatus{Phase: k.phase})
		}
		p := &st.Phases[pi]
		if j.ev.Jobs > p.Total {
			p.Total = j.ev.Jobs
		}
		end := j.ended
		if end.IsZero() {
			end = now
		}
		st.Jobs = append(st.Jobs, JobStatus{
			JobEvent:       j.ev,
			ElapsedSeconds: end.Sub(j.started).Seconds(),
		})
		switch j.ev.State {
		case JobDone:
			p.Done++
		case JobFailed:
			p.Failed++
		default:
			p.Running++
		}
	}
	for i := range st.Phases {
		p := &st.Phases[i]
		p.Queued = p.Total - p.Running - p.Done - p.Failed
		if p.Queued < 0 {
			p.Queued = 0
		}
		st.Total += p.Total
		st.Queued += p.Queued
		st.Running += p.Running
		st.Done += p.Done
		st.Failed += p.Failed
	}
	if finished := st.Done + st.Failed; finished > 0 && st.ElapsedSeconds > 0 {
		perJob := st.ElapsedSeconds / float64(finished)
		st.ETASeconds = perJob * float64(st.Queued+st.Running)
	}
	return st
}
