// Package serve puts a long-running HTTP/JSON front end on the
// experiment pipeline: sweep-as-a-service. The paper's capability
// question — "which algorithm wins under this power budget on this
// machine?" — is a query, and everything a query service needs
// already exists in the pipeline: configurations fingerprint to
// content-addressed results (workload.Config.Fingerprint), completed
// cells journal crash-safely to JSONL (the checkpoint layer, reused
// here as the persistent result store), the run cache single-flights
// concurrent computes of one cell, and the obs metrics/span registry
// publishes through expvar as service telemetry for free.
//
// Endpoints:
//
//	POST /v1/sweep        a workload.Config subset (see SweepRequest)
//	                      → NDJSON stream of cell records as they are
//	                      journaled, then one trailer object. Requests
//	                      with equal fingerprints attach to one
//	                      in-flight execution (single-flight): each
//	                      cell is executed at most once no matter how
//	                      many clients ask for it, and a request whose
//	                      stored journal already holds every cell
//	                      starts no execution at all. Every stream is
//	                      read out of the store journal, so record
//	                      lines arrive in journal order (a guided
//	                      sweep's predictions after its measured
//	                      cells) and the trailer's "next_from" is an
//	                      exact resume token: a client cut off
//	                      mid-stream re-POSTs with ?from=<next_from>
//	                      (or a Last-Cell: N header) and receives each
//	                      record exactly once, even across a replica
//	                      death. A cell the store could not journal is
//	                      not streamed: the trailer then says
//	                      "complete":false, "resumable":true.
//	GET  /v1/result/{fp}  replay a sweep's records from the persistent
//	                      store, byte-identical to the lines its POST
//	                      streamed. A GET of a sweep this replica is
//	                      executing waits for it to end first. ?from=N
//	                      skips the first N records; X-Next-From
//	                      carries the stored record count.
//	GET  /v1/status       service snapshot (uptime, replica ID,
//	                      in-flight sweeps, stored results, dedup and
//	                      recovery counters).
//	GET  /debug/vars      the expvar registry, including every obs.*
//	                      pipeline metric.
//
// Invariants, each pinned by a test that needs no timing luck:
//
//	"complete":true trailer ⇒ the sweep    TestCompleteTrailerImpliesStored
//	is not active here, and GET answers
//	200 with the streamed records (an
//	executor releases its lease and
//	unregisters before it wakes streams)
//	"next_from" is exact on every trailer: TestResumeTokenExactContinuation,
//	the journal index after the last       TestFollowerStreamsLeaseholderSweep
//	record the stream sent
//	each stream is in journal order from   TestResumeTokenExactContinuation,
//	its start index, no record repeated    TestFollowerStreamsLeaseholderSweep
//	at most one executing replica per      store: TestAcquireLeaseExclusive,
//	lease epoch; a stolen lease fences     TestZombieJournalAppendFenced
//	the old holder's appends
//
// Multi-replica operation: any number of servers may share one store
// directory. Each sweep journal is claimed by an on-disk lease (owner
// + monotonic epoch + TTL, renewed while the sweep runs; see
// internal/store). A replica asked for a sweep another replica is
// executing attaches as a read-only follower: it tails the journal and
// streams cells as the leaseholder lands them. If the leaseholder dies
// — its lease expires, or its process is verifiably gone on the same
// host — the follower (or a recovering replica) steals the lease with
// a bumped epoch and resumes the sweep through the normal
// checkpoint-resume path; epoch fencing makes the dead replica's
// late journal writes fail rather than interleave. On startup,
// Recover salvages torn journals (quarantining ones whose header is
// unreadable) and resumes any incomplete sweep whose request sidecar
// is on disk and whose lease is free.
//
// Client retry contract: bounded retries with jittered exponential
// backoff. On 429/503, honor Retry-After (add ±50% jitter); on a cut
// stream, re-POST the same request with ?from=<next_from from the last
// trailer, or the count of records already held> — resumed streams
// never repeat a record, restored cells cost no re-execution, and a
// few retries (5 with backoff capped at ~30s is plenty) ride out a
// replica death, because any replica sharing the store can continue
// the sweep. Give up, rather than retrying forever, on 400s: they are
// deterministic.
//
// Load shedding: at most MaxActiveSweeps distinct sweeps execute
// concurrently and each client (X-Client-ID header, else remote host)
// may hold ClientQuota open requests; beyond either, the server
// answers 429 so callers back off instead of queueing unboundedly.
// Attaching to an in-flight sweep does not count against
// MaxActiveSweeps — it costs a subscriber, not an executor.
//
// Draining: Drain stops admission (503 with Retry-After) and waits for
// in-flight sweeps. At the deadline it stops them instead: remaining
// cells resolve as interrupted at the next cell boundary
// (workload.Config.Stop), streams get a trailer with "complete":false
// and "resumable":true, and a short grace period lets executors close
// their journals and release their leases. Every completed cell is
// already journaled and fsynced in the store, so a drain deadline (or
// a kill -9) loses no finished work.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"capscale/internal/obs"
	"capscale/internal/store"
	"capscale/internal/workload"
)

// Config configures a sweep server.
type Config struct {
	// StoreDir is the persistent result store: one JSONL journal per
	// configuration fingerprint. Required. Multiple replicas may share
	// one directory; the lease files coordinate them.
	StoreDir string
	// Parallelism bounds each sweep's cell workers (0 = GOMAXPROCS,
	// matching workload.Config).
	Parallelism int
	// MaxActiveSweeps bounds concurrently executing sweeps; further
	// new-fingerprint requests get 429. 0 selects DefaultMaxActiveSweeps.
	MaxActiveSweeps int
	// ClientQuota bounds open requests per client (X-Client-ID header,
	// else remote host); 0 selects DefaultClientQuota. Negative
	// disables the quota.
	ClientQuota int
	// CacheCap bounds the server's run cache instance; 0 selects
	// workload.DefaultRunCacheCap.
	CacheCap int
	// FS routes all store, journal and lease I/O through an injectable
	// filesystem; nil selects the real one. The crash property tests
	// inject faults.FaultFS here.
	FS store.FS
	// ReplicaID names this server on store leases and in /v1/status;
	// empty selects "<host>:<pid>". Replicas sharing a store should
	// carry stable distinct IDs.
	ReplicaID string
	// LeaseTTL is the sweep-journal claim lifetime between renewals;
	// 0 selects store.DefaultLeaseTTL. Lower values speed up takeover
	// of a crashed replica's sweeps at the cost of more lease I/O.
	LeaseTTL time.Duration
	// FollowPoll is how often a read-only follower re-scans a journal
	// another replica is writing; 0 selects DefaultFollowPoll.
	FollowPoll time.Duration
}

// Defaults for the load-shedding knobs: small enough that an abusive
// client cannot monopolize the simulator, large enough for a busy
// interactive fleet.
const (
	DefaultMaxActiveSweeps = 4
	DefaultClientQuota     = 8
	DefaultFollowPoll      = 150 * time.Millisecond
)

// Server is a sweep-as-a-service instance. Create with New, call
// Recover to pick up interrupted sweeps, mount Handler, call Drain
// before exit.
type Server struct {
	cfg   Config
	store *store.Store
	fsys  store.FS
	cache *workload.RunCache
	start time.Time

	// stopSweeps flips at the drain deadline: every executing sweep
	// stops at its next cell boundary (workload.Config.Stop).
	stopSweeps atomic.Bool

	mu       sync.Mutex
	sweeps   map[string]*sweepState // in-flight, by fingerprint
	active   int                    // executing sweeps
	clients  map[string]int         // open requests per client
	draining bool
	wg       sync.WaitGroup // one per executing sweep
}

// Service metrics, published through expvar like every obs metric.
var (
	mReqs        = obs.GetCounter("serve.requests")
	mStarted     = obs.GetCounter("serve.sweeps.started")
	mAttached    = obs.GetCounter("serve.sweeps.attached")
	mCompleted   = obs.GetCounter("serve.sweeps.completed")
	mFailed      = obs.GetCounter("serve.sweeps.failed")
	mInterrupted = obs.GetCounter("serve.sweeps.interrupted")
	mFollowed    = obs.GetCounter("serve.sweeps.followed")
	mRecovered   = obs.GetCounter("serve.sweeps.recovered")
	mTakeovers   = obs.GetCounter("serve.sweeps.takeovers")
	mSalvaged    = obs.GetCounter("serve.journals.salvaged")
	mReplayed    = obs.GetCounter("serve.results.replayed")
	mWaited      = obs.GetCounter("serve.results.waited")
	mShedQuota   = obs.GetCounter("serve.shed.quota")
	mShedBusy    = obs.GetCounter("serve.shed.backpressure")
	mCellsSent   = obs.GetCounter("serve.cells.streamed")
	mActive      = obs.GetGauge("serve.sweeps.active")
	mOpenReqs    = obs.GetGauge("serve.requests.open")
	mReqSeconds  = obs.GetHistogramUnit("serve.request.seconds", "s")
)

// New opens (creating if needed) the result store and returns a
// server.
func New(cfg Config) (*Server, error) {
	if cfg.MaxActiveSweeps == 0 {
		cfg.MaxActiveSweeps = DefaultMaxActiveSweeps
	}
	if cfg.ClientQuota == 0 {
		cfg.ClientQuota = DefaultClientQuota
	}
	if cfg.CacheCap == 0 {
		cfg.CacheCap = workload.DefaultRunCacheCap
	}
	if cfg.FollowPoll <= 0 {
		cfg.FollowPoll = DefaultFollowPoll
	}
	if cfg.ReplicaID == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "replica"
		}
		cfg.ReplicaID = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if cfg.StoreDir == "" {
		return nil, errors.New("serve: empty store directory")
	}
	st, err := store.Open(cfg.StoreDir, cfg.FS)
	if err != nil {
		return nil, fmt.Errorf("serve: creating store: %w", err)
	}
	return &Server{
		cfg:     cfg,
		store:   st,
		fsys:    st.FS(),
		cache:   workload.NewRunCache(cfg.CacheCap),
		start:   time.Now(),
		sweeps:  make(map[string]*sweepState),
		clients: make(map[string]int),
	}, nil
}

// ReplicaID returns the ID this server claims leases under.
func (s *Server) ReplicaID() string { return s.cfg.ReplicaID }

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/result/{fp}", s.handleResult)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

// Recover scans the store for interrupted work: torn journal tails
// are salvaged (headerless journals quarantined aside), and every
// incomplete sweep with a request sidecar and a free lease is resumed
// through the normal checkpoint path. Call it on startup, after
// mounting nothing — it launches executor goroutines, not requests.
// logf (nil for silent) receives one line per action taken.
func (s *Server) Recover(logf func(format string, args ...any)) (resumed, salvaged int) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	// Union of journals and request sidecars: a crash between the
	// sidecar save and the journal's first rename leaves a sidecar with
	// no journal, and that sweep restarts from scratch.
	fps, err := s.store.Fingerprints()
	if err != nil {
		logf("recover: listing journals: %v", err)
	}
	reqs, err := s.store.RequestFingerprints()
	if err != nil {
		logf("recover: listing request sidecars: %v", err)
	}
	for _, fp := range reqs {
		if !slices.Contains(fps, fp) {
			fps = append(fps, fp)
		}
	}
	for _, fp := range fps {
		if changed, err := workload.SalvageJournal(s.fsys, s.store.Path(fp)); err != nil {
			logf("recover %s: salvage: %v", fp, err)
			continue
		} else if changed {
			salvaged++
			mSalvaged.Inc()
			logf("recover %s: salvaged journal (torn tail or junk compacted away)", fp)
		}
		body, ok := s.store.LoadRequest(fp)
		if !ok {
			continue // nothing to reconstruct the sweep from
		}
		var req SweepRequest
		if err := json.Unmarshal(body, &req); err != nil {
			logf("recover %s: unreadable request sidecar: %v", fp, err)
			continue
		}
		cfg, err := req.Config()
		if err != nil || cfg.Fingerprint() != fp {
			logf("recover %s: request sidecar does not reproduce the fingerprint; skipping", fp)
			continue
		}
		tail := s.tail(fp)
		stored := tail.stored(cfg.CellCount())
		tail.close()
		if stored {
			continue // complete: replayable, nothing to resume
		}
		if info, live := store.ReadLeaseInfo(s.fsys, s.store.LeasePath(fp), time.Now()); live {
			logf("recover %s: leased by %q; leaving it to them", fp, info.Owner)
			continue
		}
		if _, attached, err := s.startOrAttach(fp, cfg, nil); err != nil {
			logf("recover %s: %v", fp, err)
		} else if !attached {
			resumed++
			mRecovered.Inc()
			logf("recover %s: resuming (%d/%d cells stored)", fp, len(tail.keys), cfg.CellCount())
		}
	}
	return resumed, salvaged
}

// Drain stops admitting requests and waits up to timeout for in-flight
// sweeps to finish, returning true when everything drained. At the
// deadline the sweeps are stopped instead of waited out: remaining
// cells resolve as interrupted at the next cell boundary, clients'
// trailers carry "complete":false with "resumable":true, and a short
// grace period lets executors close journals and release leases —
// every completed cell is already journaled and fsynced, so nothing
// finished is lost.
func (s *Server) Drain(timeout time.Duration) bool {
	s.mu.Lock()
	s.draining = true
	states := make([]*sweepState, 0, len(s.sweeps))
	for _, st := range s.sweeps {
		states = append(states, st)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
	}
	// Deadline expired: stop the sweeps at their next cell boundary and
	// cut the streams loose with a resumable trailer.
	s.stopSweeps.Store(true)
	for _, st := range states {
		st.finish("server draining; completed cells are stored — resume with ?from=", true)
	}
	grace := timeout / 2
	if grace > 2*time.Second {
		grace = 2 * time.Second
	}
	if grace < 50*time.Millisecond {
		grace = 50 * time.Millisecond
	}
	select {
	case <-done:
	case <-time.After(grace):
	}
	return false
}

// clientID identifies a request's client for quota accounting.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	return r.RemoteAddr
}

// admit performs the shared admission checks (drain state, client
// quota), returning the client key and false when the request was
// already answered.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (string, bool) {
	mReqs.Inc()
	client := clientID(r)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		w.Header().Set("Retry-After", "10")
		http.Error(w, "server draining", http.StatusServiceUnavailable)
		return "", false
	}
	if q := s.cfg.ClientQuota; q > 0 && s.clients[client] >= q {
		mShedQuota.Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, fmt.Sprintf("client %q has %d requests open (quota %d)", client, s.clients[client], q),
			http.StatusTooManyRequests)
		return "", false
	}
	s.clients[client]++
	mOpenReqs.Add(1)
	return client, true
}

// release undoes admit's accounting.
func (s *Server) release(client string) {
	s.mu.Lock()
	s.clients[client]--
	if s.clients[client] <= 0 {
		delete(s.clients, client)
	}
	s.mu.Unlock()
	mOpenReqs.Add(-1)
}

// resumeToken parses the cell-granularity resume token: ?from=N query
// parameter, else a Last-Cell: N header, else 0. N is the number of
// record lines the client already holds (equivalently: the next record
// index it wants) — exactly the "next_from" every trailer carries.
func resumeToken(r *http.Request) (int, error) {
	v := r.URL.Query().Get("from")
	if v == "" {
		v = r.Header.Get("Last-Cell")
	}
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad resume token %q (want a non-negative record index)", v)
	}
	return n, nil
}

// handleSweep streams a sweep's cell records as NDJSON, first making
// sure somebody executes it: this replica (starting or attaching to
// the execution) or the replica holding its lease. A sweep whose
// journal already holds every cell is streamed from the store.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	defer func() { mReqSeconds.Observe(time.Since(t0).Seconds()) }()

	client, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer s.release(client)

	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, "reading request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	var req SweepRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, "bad request JSON: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	cfg, err := req.Config()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fp := cfg.Fingerprint()
	from, err := resumeToken(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	tail := s.tail(fp)
	defer tail.close()
	var st *sweepState
	if !tail.stored(cfg.CellCount()) {
		var attached bool
		st, attached, err = s.startOrAttach(fp, cfg, body)
		var held *store.HeldError
		switch {
		case errors.As(err, &held):
			// Another replica is executing this sweep: follow its
			// journal read-only, streaming cells as they land.
			mFollowed.Inc()
			w.Header().Set("X-Sweep-Leaseholder", held.Info.Owner)
		case err != nil:
			mShedBusy.Inc()
			w.Header().Set("Retry-After", "5")
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		case attached:
			mAttached.Inc()
		}
	}
	tail.reopen()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Sweep-Fingerprint", fp)
	w.WriteHeader(http.StatusOK)
	s.streamJournal(r.Context(), w, tail, cfg, from, st)
}

// tail returns a reader of fp's store journal.
func (s *Server) tail(fp string) *journalTail {
	return newJournalTail(s.fsys, s.store.Path(fp), fp)
}

// sweep returns the state of fp's execution on this replica, if any.
func (s *Server) sweep(fp string) *sweepState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweeps[fp]
}

// startOrAttach returns the in-flight sweep state for fp, launching
// the execution when this request is the first to ask for it. The
// launch claims the journal's on-disk lease; a *store.HeldError means
// another replica holds it (callers fall back to following its
// journal), any other error is executor backpressure. body, when
// non-nil, is saved as the request sidecar recovery resumes from.
func (s *Server) startOrAttach(fp string, cfg workload.Config, body []byte) (*sweepState, bool, error) {
	s.mu.Lock()
	if st, ok := s.sweeps[fp]; ok {
		s.mu.Unlock()
		return st, true, nil
	}
	if s.active >= s.cfg.MaxActiveSweeps {
		s.mu.Unlock()
		return nil, false, fmt.Errorf("%d sweeps executing (limit %d); retry shortly",
			s.active, s.cfg.MaxActiveSweeps)
	}
	// Reserve the slot and publish the state before the lease I/O, so
	// concurrent identical requests attach instead of racing the claim.
	st := newSweepState(fp)
	s.sweeps[fp] = st
	s.active++
	s.mu.Unlock()
	mActive.Add(1)

	lease, err := store.AcquireLease(s.fsys, s.store.LeasePath(fp), s.cfg.ReplicaID, s.cfg.LeaseTTL, nil)
	if err != nil {
		s.unregister(fp)
		// Anyone who attached to the placeholder in the window gets a
		// resumable trailer pointing at the follower path.
		st.finish("sweep not started here: "+err.Error()+" — re-POST to follow the holder's journal", true)
		return nil, false, err
	}
	if len(body) > 0 {
		if err := s.store.SaveRequest(fp, body); err != nil {
			// The sweep can proceed; only crash recovery of this
			// fingerprint is degraded. Worth a line on stderr.
			fmt.Fprintf(os.Stderr, "serve: saving request sidecar for %s: %v\n", fp, err)
		}
	}
	mStarted.Inc()
	s.wg.Add(1)
	go s.runSweep(st, cfg, lease)
	return st, false, nil
}

// unregister drops fp's in-flight state and frees its executor slot.
func (s *Server) unregister(fp string) {
	s.mu.Lock()
	delete(s.sweeps, fp)
	s.active--
	s.mu.Unlock()
	mActive.Add(-1)
}

// runSweep executes one sweep into the store journal, waking the
// sweep's streams as each cell is journaled.
func (s *Server) runSweep(st *sweepState, cfg workload.Config, lease *store.Lease) {
	defer s.wg.Done()
	cfg.CheckpointPath = s.store.Path(st.fp)
	cfg.FS = s.cfg.FS
	cfg.Lease = lease
	cfg.LeaseOwner = s.cfg.ReplicaID
	cfg.Stop = func() bool { return s.stopSweeps.Load() }
	cfg.Cache = s.cache
	cfg.Parallelism = s.cfg.Parallelism
	// The checkpoint journals a cell before OnRun reports it, so a
	// stream woken here finds the record on disk.
	cfg.OnRun = func(string, *workload.Run) { st.wake() }

	// Release and unregister before waking the streams, on every path:
	// a client that reads a complete trailer then finds the sweep
	// stored, not active.
	var errMsg string
	resumable := false
	defer func() {
		func() {
			// The release itself can panic under the fault filesystem's
			// simulated power loss (in production the process would be
			// dead here anyway); contain it so the bookkeeping below
			// still runs.
			defer func() {
				if p := recover(); p != nil {
					fmt.Fprintf(os.Stderr, "serve: releasing lease for %s: %v\n", st.fp, p)
				}
			}()
			if err := lease.Release(); err != nil {
				fmt.Fprintf(os.Stderr, "serve: releasing lease for %s: %v\n", st.fp, err)
			}
		}()
		s.unregister(st.fp)
		st.finish(errMsg, resumable)
	}()

	var mx *workload.Matrix
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("sweep failed: %v", p)
			}
		}()
		mx = workload.Execute(cfg)
		return nil
	}()
	switch {
	case err != nil:
		mFailed.Inc()
		errMsg = err.Error()
	case len(mx.InterruptedRuns()) > 0:
		// Drain deadline or lost lease: the sweep stopped at a cell
		// boundary with everything completed safely journaled.
		mInterrupted.Inc()
		reason := "drain deadline"
		if lease.Lost() {
			reason = "journal lease lost to another replica"
		}
		errMsg = fmt.Sprintf("sweep interrupted (%s): %d of %d cells not executed; completed cells are stored — resume with ?from=",
			reason, len(mx.InterruptedRuns()), cfg.CellCount())
		resumable = true
	default:
		mCompleted.Inc()
	}
}

// streamJournal is the one writer of record lines to a sweep stream.
// It tails fp's store journal from record index from, then writes the
// trailer. While this replica executes the sweep (st, or a takeover
// the loop starts) it reads after each wake-up of the executor;
// otherwise it follows the journal every FollowPoll, and takes the
// sweep over when it is incomplete and nobody holds its lease.
func (s *Server) streamJournal(ctx context.Context, w io.Writer, tail *journalTail, cfg workload.Config, from int, st *sweepState) {
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	fp, cells := tail.fp, cfg.CellCount()
	next, streamed, seq := from, 0, 0
	complete, resumable := false, true
	var errMsg string

	for {
		done := false
		if st != nil {
			var ok bool
			if seq, done, ok = st.wait(ctx, seq); !ok {
				return
			}
		}
		recs, err := tail.lines()
		if err != nil {
			errMsg = "journal read: " + err.Error()
			break
		}
		first := tail.n - len(recs)
		if next > tail.n {
			errMsg = fmt.Sprintf("resume token %d beyond the journal (%d records; it may have been salvaged) — restart from 0", next, tail.n)
			break
		}
		fresh := recs[next-first:]
		for _, rec := range fresh {
			if _, err := w.Write(rec); err != nil {
				return // client gone; nothing more to say
			}
			next++
			streamed++
			mCellsSent.Inc()
		}
		if len(fresh) > 0 {
			flush()
		}
		if st == nil {
			if st = s.sweep(fp); st != nil {
				// This replica executes it now: read after its wake-ups.
				seq = 0
				tail.reopen()
				continue
			}
		}
		// A local execution is reported complete only once it is done:
		// finish comes after the executor unregistered, so a client
		// acting on the trailer finds the sweep stored.
		if tail.complete(cells) && (st == nil || done) {
			complete = true
			break
		}
		if done {
			errMsg, resumable = st.errMsg, st.resumable
			if errMsg == "" {
				errMsg = fmt.Sprintf("sweep ended with %d of %d cells journaled; re-POST to execute the rest", len(tail.keys), cells)
				resumable = true
			}
			break
		}
		if st != nil {
			continue
		}
		if ctx.Err() != nil {
			return
		}
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			errMsg = "server draining; resume against another replica"
			break
		}
		// Incomplete, and this replica is not executing it: take over
		// if the lease is free (the holder died), otherwise keep
		// following the holder's appends.
		if _, live := store.ReadLeaseInfo(s.fsys, s.store.LeasePath(fp), time.Now()); !live {
			if taken, attached, err := s.startOrAttach(fp, cfg, nil); err == nil {
				if !attached {
					mTakeovers.Inc()
				}
				st, seq = taken, 0
				tail.reopen()
				continue
			}
		}
		t := time.NewTimer(s.cfg.FollowPoll)
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		tail.reopen()
	}
	tr := trailer{
		Done:        true,
		Fingerprint: fp,
		Cells:       cells,
		Streamed:    streamed,
		Complete:    complete,
		Error:       errMsg,
		Resumable:   resumable && !complete,
		NextFrom:    next,
	}
	line, _ := json.Marshal(tr)
	if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
		return
	}
	flush()
}

// handleResult replays a sweep's journal from the store, byte-identical
// across replays and to the record lines its POST streamed. A sweep
// this replica is executing is waited out first. ?from=N skips the
// first N records; X-Next-From carries the stored record count.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	defer func() { mReqSeconds.Observe(time.Since(t0).Seconds()) }()
	client, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer s.release(client)

	fp := r.PathValue("fp")
	if !store.ValidFingerprint(fp) {
		http.Error(w, "malformed fingerprint", http.StatusBadRequest)
		return
	}
	from, err := resumeToken(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if st := s.sweep(fp); st != nil {
		mWaited.Inc()
		for seq, done := 0, false; !done; {
			if seq, done, ok = st.wait(r.Context(), seq); !ok {
				return
			}
		}
	}
	if !s.store.Has(fp) {
		http.Error(w, "no stored result for fingerprint "+fp, http.StatusNotFound)
		return
	}
	tail := s.tail(fp)
	defer tail.close()
	recs, err := tail.lines()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if from > len(recs) {
		http.Error(w, fmt.Sprintf("resume token %d beyond the %d stored records", from, len(recs)),
			http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Next-From", strconv.Itoa(len(recs)))
	for _, rec := range recs[from:] {
		if _, err := w.Write(rec); err != nil {
			return
		}
	}
	mReplayed.Inc()
}

// statusJSON is the GET /v1/status document.
type statusJSON struct {
	UptimeSeconds    float64 `json:"uptime_seconds"`
	ReplicaID        string  `json:"replica_id"`
	Draining         bool    `json:"draining"`
	ActiveSweeps     int     `json:"active_sweeps"`
	OpenRequests     int64   `json:"open_requests"`
	StoredResults    int     `json:"stored_results"`
	SweepsStarted    int64   `json:"sweeps_started"`
	SweepsAttached   int64   `json:"sweeps_attached"`
	SweepsCompleted  int64   `json:"sweeps_completed"`
	SweepsFailed     int64   `json:"sweeps_failed"`
	SweepsFollowed   int64   `json:"sweeps_followed"`
	SweepsRecovered  int64   `json:"sweeps_recovered"`
	SweepsTakenOver  int64   `json:"sweeps_taken_over"`
	JournalsSalvaged int64   `json:"journals_salvaged"`
	CellsStreamed    int64   `json:"cells_streamed"`
	CellsExecuted    int64   `json:"cells_executed"`
	CacheDeduped     int64   `json:"cells_deduplicated"`
	ShedQuota        int64   `json:"shed_quota"`
	ShedBusy         int64   `json:"shed_backpressure"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	active, draining := s.active, s.draining
	s.mu.Unlock()
	stored, _ := s.store.Fingerprints()
	doc := statusJSON{
		UptimeSeconds:    time.Since(s.start).Seconds(),
		ReplicaID:        s.cfg.ReplicaID,
		Draining:         draining,
		ActiveSweeps:     active,
		OpenRequests:     mOpenReqs.Value(),
		StoredResults:    len(stored),
		SweepsStarted:    mStarted.Value(),
		SweepsAttached:   mAttached.Value(),
		SweepsCompleted:  mCompleted.Value(),
		SweepsFailed:     mFailed.Value(),
		SweepsFollowed:   mFollowed.Value(),
		SweepsRecovered:  mRecovered.Value(),
		SweepsTakenOver:  mTakeovers.Value(),
		JournalsSalvaged: mSalvaged.Value(),
		CellsStreamed:    mCellsSent.Value(),
		CellsExecuted:    obs.GetCounter("workload.cells.executed").Value(),
		CacheDeduped:     obs.GetCounter("workload.cache.singleflight").Value(),
		ShedQuota:        mShedQuota.Value(),
		ShedBusy:         mShedBusy.Value(),
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		return
	}
}

// sweepState is the wake-up notifier of a sweep this replica executes:
// the executor bumps seq as each cell is journaled and sets done once
// it has stopped, and the sweep's streams wait on it between reads of
// the journal.
type sweepState struct {
	fp string

	mu   sync.Mutex
	cond *sync.Cond
	seq  int
	done bool
	// errMsg and resumable are set with done and never change after,
	// so a waiter that has seen done reads them without the lock.
	errMsg    string
	resumable bool
}

func newSweepState(fp string) *sweepState {
	st := &sweepState{fp: fp}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// wake reports one more journaled cell.
func (st *sweepState) wake() {
	st.mu.Lock()
	st.seq++
	st.mu.Unlock()
	st.cond.Broadcast()
}

// finish marks the sweep stopped (errMsg "" on success; resumable when
// a re-POST will pick up where it stopped). The first call wins.
func (st *sweepState) finish(errMsg string, resumable bool) {
	st.mu.Lock()
	if !st.done {
		st.done, st.errMsg, st.resumable = true, errMsg, resumable
	}
	st.mu.Unlock()
	st.cond.Broadcast()
}

// wait blocks until the sweep has moved past seq or stopped, returning
// the new seq and whether it stopped; ok is false when ctx ended first.
func (st *sweepState) wait(ctx context.Context, seq int) (next int, done, ok bool) {
	stop := context.AfterFunc(ctx, func() {
		st.mu.Lock()
		st.cond.Broadcast()
		st.mu.Unlock()
	})
	defer stop()
	st.mu.Lock()
	defer st.mu.Unlock()
	for st.seq == seq && !st.done && ctx.Err() == nil {
		st.cond.Wait()
	}
	return st.seq, st.done, ctx.Err() == nil
}

// trailer is the final NDJSON object of a sweep stream. Its "done"
// field distinguishes it from cell records (which carry "key").
// NextFrom is the journal index after the last record the stream sent:
// re-POST with ?from=<next_from> to continue exactly there.
type trailer struct {
	Done        bool   `json:"done"`
	Fingerprint string `json:"fingerprint"`
	Cells       int    `json:"cells"`
	Streamed    int    `json:"streamed"`
	Complete    bool   `json:"complete"`
	Error       string `json:"error,omitempty"`
	Resumable   bool   `json:"resumable,omitempty"`
	NextFrom    int    `json:"next_from"`
}
