package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"positlab/internal/faultfs"
)

// Config tunes a Store. The zero value is the documented default.
type Config struct {
	// CompactEvery is the number of journal records after which the
	// store snapshots the job table and truncates the journal.
	// <= 0 means 4096.
	CompactEvery int
	// NoSync skips the per-record fsync. Only for benchmarks and
	// tests that measure the in-memory path; production journals sync.
	NoSync bool
	// FS is the filesystem seam every durable operation goes through.
	// Nil means the real filesystem (faultfs.OS); the chaos suite and
	// positd's -fault-plan flag substitute a fault injector.
	FS faultfs.FS
}

func (c Config) fill() Config {
	if c.CompactEvery <= 0 {
		c.CompactEvery = 4096
	}
	c.FS = faultfs.OrOS(c.FS)
	return c
}

// ReplayStats describes what Open reconstructed from disk.
type ReplayStats struct {
	// SnapshotJobs: jobs loaded from snapshot.json.
	SnapshotJobs int `json:"snapshot_jobs"`
	// Records: journal records replayed on top.
	Records int `json:"records"`
	// Resumed: interrupted running jobs requeued with a checkpoint to
	// resume from.
	Resumed int `json:"resumed"`
	// Restarted: interrupted running jobs requeued without a
	// checkpoint (they start over).
	Restarted int `json:"restarted"`
	// Truncated: a torn final journal line was dropped.
	Truncated bool `json:"truncated,omitempty"`
	// MS: wall time of the replay.
	MS float64 `json:"ms"`
}

// Store is the durable job table: an in-memory map of jobs mirrored to
// the journal. All methods are safe for concurrent use. A Store opened
// with an empty dir is ephemeral (no journal, no durability) — used by
// tests and by servers that opt out of persistence.
type Store struct {
	mu      sync.Mutex
	dir     string
	cfg     Config
	j       *journal // nil when ephemeral
	jobs    map[string]*Job
	order   []string // job IDs in submission order
	seq     uint64
	changed chan struct{} // closed and replaced on every mutation
	replay  ReplayStats
	// journalErrs counts append/compaction failures; the in-memory
	// state stays authoritative and the server keeps running with
	// degraded durability.
	journalErrs uint64
	recsSince   int
	closed      bool
}

// Open loads (or creates) the job store in dir. An empty dir yields an
// ephemeral in-memory store and never fails. Jobs found in the
// "running" state belong to a process that no longer exists; they are
// returned to the queue, keeping their last journaled checkpoint so
// the next attempt resumes rather than restarts.
func Open(dir string, cfg Config) (*Store, error) {
	s := &Store{
		dir:     dir,
		cfg:     cfg.fill(),
		jobs:    map[string]*Job{},
		changed: make(chan struct{}),
	}
	if dir == "" {
		return s, nil
	}
	start := time.Now()
	if err := s.cfg.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: create dir: %w", err)
	}
	snap, err := readSnapshot(s.cfg.FS, dir)
	if err != nil {
		return nil, err
	}
	for _, j := range snap.Jobs {
		jc := j.clone()
		s.jobs[jc.ID] = &jc
		s.order = append(s.order, jc.ID)
		if jc.Seq > s.seq {
			s.seq = jc.Seq
		}
	}
	s.replay.SnapshotJobs = len(snap.Jobs)
	if snap.Seq > s.seq {
		s.seq = snap.Seq
	}
	records, truncated, torn, err := replayJournal(s.cfg.FS, dir, s.applyLocked)
	if err != nil {
		return nil, err
	}
	s.replay.Records = records
	s.replay.Truncated = truncated
	// Crash recovery: a "running" job's process is gone. Requeue it;
	// the journaled checkpoint (when present) makes the next attempt a
	// resume.
	for _, id := range s.order {
		j := s.jobs[id]
		if j.State != StateRunning {
			continue
		}
		j.State = StateQueued
		j.Recoveries++
		j.Progress = Progress{}
		if len(j.Checkpoint) > 0 {
			s.replay.Resumed++
		} else {
			s.replay.Restarted++
		}
	}
	if s.j, err = openJournal(s.cfg.FS, dir, s.cfg.NoSync); err != nil {
		return nil, err
	}
	if torn >= 0 {
		// Left in place, the torn line would fuse with the next append
		// into one unparsable line, and the next replay would drop
		// every record from there on.
		if err := s.j.truncate(torn); err != nil {
			return nil, errors.Join(err, s.j.close())
		}
	}
	s.recsSince = records
	if s.recsSince > s.cfg.CompactEvery {
		s.compactLocked()
	}
	s.replay.MS = float64(time.Since(start)) / float64(time.Millisecond)
	return s, nil
}

// applyLocked replays one journal record into the in-memory table.
// Unknown IDs and types are skipped: the journal may legitimately hold
// records for jobs already folded into the snapshot by a compaction
// race, and forward compatibility beats a refusal to start.
func (s *Store) applyLocked(r rec) {
	if r.T == "submit" {
		if r.Job == nil {
			return
		}
		jc := r.Job.clone()
		if _, dup := s.jobs[jc.ID]; dup {
			return
		}
		s.jobs[jc.ID] = &jc
		s.order = append(s.order, jc.ID)
		if jc.Seq > s.seq {
			s.seq = jc.Seq
		}
		return
	}
	j, ok := s.jobs[r.ID]
	if !ok {
		return
	}
	switch r.T {
	case "start":
		j.State = StateRunning
		j.Attempt = r.Attempt
		j.StartedNS = r.TS
	case "ckpt":
		j.Checkpoint = r.Data
		j.CheckpointIter = r.Iter
	case "done":
		j.State = StateSucceeded
		j.Result = r.Result
		j.Error = ""
		j.FinishedNS = r.TS
	case "fail":
		j.Error = r.Error
		if r.Final {
			j.State = StateFailed
			j.FinishedNS = r.TS
		} else {
			j.State = StateQueued
			j.Retries++
		}
	case "cancel":
		j.State = StateCanceled
		j.Error = "canceled"
		j.FinishedNS = r.TS
	case "requeue":
		j.State = StateQueued
		j.Recoveries++
		j.Progress = Progress{}
	}
}

// appendLocked journals a record, counting (not failing on) journal
// errors: the in-memory state is authoritative and the server keeps
// serving with degraded durability. Submission is the exception and
// uses appendStrictLocked.
func (s *Store) appendLocked(r rec) {
	if err := s.appendStrictLocked(r); err != nil {
		s.journalErrs++
	}
}

func (s *Store) appendStrictLocked(r rec) error {
	if s.j == nil {
		return nil
	}
	if s.closed {
		return ErrClosed
	}
	if err := s.j.append(r); err != nil {
		return err
	}
	s.recsSince++
	if s.recsSince > s.cfg.CompactEvery {
		s.compactLocked()
	}
	return nil
}

// compactLocked writes the full job table as a snapshot and truncates
// the journal. Failures leave the journal as-is (still correct, just
// longer) and are counted.
func (s *Store) compactLocked() {
	if s.j == nil {
		return
	}
	snap := &snapshot{Seq: s.seq}
	for _, id := range s.order {
		jc := s.jobs[id].clone()
		snap.Jobs = append(snap.Jobs, &jc)
	}
	if err := writeSnapshot(s.cfg.FS, s.dir, snap); err != nil {
		s.journalErrs++
		return
	}
	if err := s.j.truncate(0); err != nil {
		s.journalErrs++
		return
	}
	s.recsSince = 0
}

// broadcastLocked wakes every Wait-er.
func (s *Store) broadcastLocked() {
	close(s.changed)
	s.changed = make(chan struct{})
}

func nowNS() int64 { return time.Now().UnixNano() }

// normRaw validates an opaque payload destined for the journal. Every
// record line and snapshot is JSON, so an invalid payload would poison
// them; reject it at the boundary instead. Empty means "no payload".
func normRaw(b []byte, what string) (json.RawMessage, error) {
	if len(b) == 0 {
		return nil, nil
	}
	if !json.Valid(b) {
		return nil, fmt.Errorf("jobs: %s is not valid JSON", what)
	}
	return append(json.RawMessage(nil), b...), nil
}

// Submit appends a new queued job. Unlike the other transitions, a
// journal failure here fails the submission — acknowledging a job the
// journal never saw would break the durability contract.
func (s *Store) Submit(kind string, spec []byte, opt SubmitOptions) (Job, error) {
	if opt.Priority == "" {
		opt.Priority = PriorityBulk
	}
	rawSpec, err := normRaw(spec, "job spec")
	if err != nil {
		return Job{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Job{}, ErrClosed
	}
	s.seq++
	j := &Job{
		ID:              fmt.Sprintf("j%06d", s.seq),
		Seq:             s.seq,
		Kind:            kind,
		Priority:        opt.Priority,
		Spec:            rawSpec,
		State:           StateQueued,
		MaxRetries:      opt.MaxRetries,
		CheckpointEvery: opt.CheckpointEvery,
		MaxRuntime:      opt.MaxRuntime,
		SubmittedNS:     nowNS(),
	}
	// Insert before journaling: if this very record triggers a
	// compaction, the snapshot must already contain the job (the
	// truncation erases its submit record).
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	if err := s.appendStrictLocked(rec{T: "submit", Job: j, TS: j.SubmittedNS}); err != nil {
		delete(s.jobs, j.ID)
		s.order = s.order[:len(s.order)-1]
		// The sequence number is NOT rolled back: the record may have
		// reached the journal even though the append reported failure
		// (write landed, fsync errored). Reusing the ID would let a
		// later successful submit collide with the failed record on
		// replay — the replayed (failed) spec would shadow the
		// acknowledged one. A gap in the ID space is harmless; a
		// collision breaks the durability contract.
		s.journalErrs++
		return Job{}, err
	}
	s.broadcastLocked()
	return j.clone(), nil
}

// Get returns a copy of the job.
func (s *Store) Get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return j.clone(), true
}

// List returns matching jobs, newest first.
func (s *Store) List(f Filter) []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Job
	for i := len(s.order) - 1; i >= 0; i-- {
		j := s.jobs[s.order[i]]
		if !f.matches(j) {
			continue
		}
		out = append(out, j.clone())
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// queuedIDs returns queued job IDs in submission order (the pool's
// startup and FIFO source of truth).
func (s *Store) queuedIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, id := range s.order {
		if s.jobs[id].State == StateQueued {
			out = append(out, id)
		}
	}
	return out
}

// Wait blocks until the job reaches a terminal state or ctx expires,
// returning the job either way (zero Job if unknown).
func (s *Store) Wait(ctx context.Context, id string) (Job, error) {
	for {
		s.mu.Lock()
		j, ok := s.jobs[id]
		if !ok {
			s.mu.Unlock()
			return Job{}, ErrUnknownJob
		}
		if j.State.Terminal() {
			jc := j.clone()
			s.mu.Unlock()
			return jc, nil
		}
		ch := s.changed
		jc := j.clone()
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return jc, ctx.Err()
		}
	}
}

// mutate runs fn on the live job under the lock, journals r, and
// broadcasts. It is the shared shape of every pool-side transition. fn
// returning an error (a lost transition race, e.g. cancel vs. finish)
// aborts the mutation: nothing is journaled or changed.
func (s *Store) mutate(id string, r rec, fn func(*Job) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return ErrUnknownJob
	}
	if err := fn(j); err != nil {
		return err
	}
	s.appendLocked(r)
	s.broadcastLocked()
	return nil
}

// markStart transitions a queued job to running. A job settled between
// dequeue and start (canceled while in the worker's hand) returns
// ErrFinished and must not run.
func (s *Store) markStart(id string, attempt int) error {
	ts := nowNS()
	return s.mutate(id, rec{T: "start", ID: id, Attempt: attempt, TS: ts}, func(j *Job) error {
		if j.State != StateQueued {
			return ErrFinished
		}
		j.State = StateRunning
		j.Attempt = attempt
		j.StartedNS = ts
		j.Progress = Progress{}
		return nil
	})
}

// saveCheckpoint journals the runner's resumable state. Unlike other
// transitions this one reports journal failure to the caller (the
// solver aborts rather than running on with a durability guarantee it
// no longer has).
func (s *Store) saveCheckpoint(id string, iter int, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return ErrUnknownJob
	}
	d, err := normRaw(data, "checkpoint")
	if err != nil {
		return err
	}
	// Update the job before journaling, like Submit: if this append
	// triggers a compaction, the snapshot must already carry the new
	// checkpoint — the compaction truncates the journal, taking the
	// just-written ckpt record with it. On append failure (no
	// compaction ran) the old values are restored.
	prevData, prevIter := j.Checkpoint, j.CheckpointIter
	j.Checkpoint = d
	j.CheckpointIter = iter
	if err := s.appendStrictLocked(rec{T: "ckpt", ID: id, Iter: iter, Data: d, TS: nowNS()}); err != nil {
		j.Checkpoint = prevData
		j.CheckpointIter = prevIter
		s.journalErrs++
		return err
	}
	s.broadcastLocked()
	return nil
}

// setProgress updates live progress (memory only, never journaled).
func (s *Store) setProgress(id string, p Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		j.Progress = p.scrub()
	}
	s.broadcastLocked()
}

// notTerminal is the shared precondition of every settle transition: a
// job that already reached a terminal state stays there, and the losing
// side of the race learns it via ErrFinished.
func notTerminal(j *Job) error {
	if j.State.Terminal() {
		return ErrFinished
	}
	return nil
}

// finish marks success. A result that is not valid JSON (a misbehaving
// runner) is preserved as a JSON string rather than poisoning the
// journal or leaving the job unsettleable.
func (s *Store) finish(id string, result []byte) error {
	ts := nowNS()
	res, err := normRaw(result, "result")
	if err != nil {
		quoted, qerr := json.Marshal(string(result))
		if qerr != nil {
			quoted = []byte(`"unencodable result"`)
		}
		res = quoted
	}
	return s.mutate(id, rec{T: "done", ID: id, Result: res, TS: ts}, func(j *Job) error {
		if err := notTerminal(j); err != nil {
			return err
		}
		j.State = StateSucceeded
		j.Result = res
		j.Error = ""
		j.FinishedNS = ts
		return nil
	})
}

// fail records a failed attempt; final decides between terminal
// failure and a retry requeue.
func (s *Store) fail(id string, msg string, final bool) error {
	ts := nowNS()
	return s.mutate(id, rec{T: "fail", ID: id, Error: msg, Final: final, TS: ts}, func(j *Job) error {
		if err := notTerminal(j); err != nil {
			return err
		}
		j.Error = msg
		if final {
			j.State = StateFailed
			j.FinishedNS = ts
		} else {
			j.State = StateQueued
			j.Retries++
		}
		return nil
	})
}

// markCanceled terminates a job at the user's request.
func (s *Store) markCanceled(id string) error {
	ts := nowNS()
	return s.mutate(id, rec{T: "cancel", ID: id, TS: ts}, func(j *Job) error {
		if err := notTerminal(j); err != nil {
			return err
		}
		j.State = StateCanceled
		j.Error = "canceled"
		j.FinishedNS = ts
		return nil
	})
}

// requeueForDrain returns a running job to the queue with its
// checkpoint intact (graceful shutdown: the work is not lost, the next
// process resumes it).
func (s *Store) requeueForDrain(id string) error {
	return s.mutate(id, rec{T: "requeue", ID: id, TS: nowNS()}, func(j *Job) error {
		if err := notTerminal(j); err != nil {
			return err
		}
		j.State = StateQueued
		j.Recoveries++
		j.Progress = Progress{}
		return nil
	})
}

// ReplayStats reports what Open reconstructed.
func (s *Store) ReplayStats() ReplayStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replay
}

// JournalErrors reports accumulated journal write failures.
func (s *Store) JournalErrors() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journalErrs
}

// QueueDepths reports queued jobs per priority class.
func (s *Store) QueueDepths() (interactive, bulk int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.order {
		j := s.jobs[id]
		if j.State != StateQueued {
			continue
		}
		if j.Priority == PriorityInteractive {
			interactive++
		} else {
			bulk++
		}
	}
	return interactive, bulk
}

// Len reports the total number of jobs in the table.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// Close closes the journal. Further journaled transitions fail with
// ErrClosed; in-memory reads keep working. Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.j == nil {
		s.closed = true
		return nil
	}
	s.closed = true
	return s.j.close()
}
