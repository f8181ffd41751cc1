package fsserve_test

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"betrfs/internal/bench"
	"betrfs/internal/fsrpc"
	"betrfs/internal/fsserve"
	"betrfs/internal/metrics"
)

// rawConn drives the wire protocol frame by frame over one connection —
// the takeover tests need two connections presenting the same token,
// which the fsrpc client (one session per client) cannot script.
type rawConn struct {
	t  *testing.T
	rw net.Conn
}

func dialRaw(t *testing.T, srv *fsserve.Server) *rawConn {
	t.Helper()
	cliEnd, srvEnd := net.Pipe()
	go srv.ServeConn(srvEnd)
	t.Cleanup(func() { cliEnd.Close() })
	return &rawConn{t: t, rw: cliEnd}
}

func (c *rawConn) send(q *fsrpc.Request) {
	c.t.Helper()
	if err := fsrpc.WriteFrame(c.rw, q.Encode()); err != nil {
		c.t.Fatalf("send %s: %v", q.Op, err)
	}
}

func (c *rawConn) recv() *fsrpc.Reply {
	c.t.Helper()
	c.rw.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, err := fsrpc.ReadFrame(c.rw)
	if err != nil {
		c.t.Fatalf("recv: %v", err)
	}
	r, err := fsrpc.DecodeReply(payload)
	if err != nil {
		c.t.Fatalf("decode reply: %v", err)
	}
	return r
}

func waitGauge(t *testing.T, g *metrics.Gauge, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("gauge stuck at %d, want %d", g.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueuedMutationFromTakenOverConnHitsSharedDRC pins the exactly-once
// guarantee across a latest-wins session takeover: a sequenced mutation
// the stale connection already admitted to the worker queue must keep
// executing against the session's shared duplicate-reply cache, so the
// client's replay of the same sequence on the new connection is answered
// from cache — not applied a second time. (A takeover that detached the
// stale connection's queued work from the DRC would double-apply.)
func TestQueuedMutationFromTakenOverConnHitsSharedDRC(t *testing.T) {
	in := bench.Build("betrfs-v0.6", 256)
	gate := make(chan struct{})
	parked := make(chan struct{}, 1)
	var park atomic.Bool
	cfg := fsserve.DefaultConfig() // Workers=1
	cfg.ExecSlots = -1             // HELLO must not wait behind the parked worker
	cfg.OnExecute = func(op fsrpc.Op) {
		if op == fsrpc.OpMkdir && park.CompareAndSwap(true, false) {
			parked <- struct{}{}
			<-gate
		}
	}
	srv := fsserve.New(in.Env, in.Mount, cfg)
	defer srv.Shutdown()

	c1 := dialRaw(t, srv)
	c1.send(&fsrpc.Request{Op: fsrpc.OpHello, Tag: 1})
	hr := c1.recv()
	if hr.Status != fsrpc.StatusOK || hr.Token == "" {
		t.Fatalf("hello reply = %+v, want OK with token", hr)
	}

	// Park the single worker on a first mutation, then queue a sequenced
	// CREATE behind it: it is still waiting in the admission queue when
	// the session is taken over below.
	park.Store(true)
	c1.send(&fsrpc.Request{Op: fsrpc.OpMkdir, Tag: 2, Seq: 1, Path: "d"})
	<-parked
	c1.send(&fsrpc.Request{Op: fsrpc.OpCreate, Tag: 3, Seq: 2, Path: "f"})
	waitGauge(t, in.Env.Metrics.Gauge("fsserve.queue.depth"), 1)

	// Take the session over from a second connection (latest wins) and
	// replay the fate-unknown CREATE, as a resuming client would.
	c2 := dialRaw(t, srv)
	c2.send(&fsrpc.Request{Op: fsrpc.OpHello, Tag: 1, Token: hr.Token})
	rr := c2.recv()
	if rr.Status != fsrpc.StatusOK || !rr.Resumed {
		t.Fatalf("resume hello reply = %+v, want OK resumed", rr)
	}
	c2.send(&fsrpc.Request{Op: fsrpc.OpCreate, Tag: 2, Seq: 2, Path: "f"})
	close(gate)
	cr := c2.recv()
	if cr.Status != fsrpc.StatusOK || cr.Handle == 0 {
		t.Fatalf("replayed create reply = %+v, want OK with handle", cr)
	}

	// Exactly once: the stale connection's queued original executed and
	// cached; the replay hit the cache instead of re-running CREATE.
	if got := in.Env.Metrics.Counter("fsserve.op.create").Load(); got != 1 {
		t.Errorf("fsserve.op.create = %d, want 1 (CREATE applied twice)", got)
	}
	if got := in.Env.Metrics.Counter("fsserve.drc.hit").Load(); got != 1 {
		t.Errorf("fsserve.drc.hit = %d, want 1", got)
	}
}

// TestAttachedSessionIsTakenOverNotExpired presents the token of a live,
// attached session whose lease clock has lapsed: attached states are
// never expired — the HELLO must take the session over latest-wins, with
// the handle table intact, not ESTALE it and close its handles.
func TestAttachedSessionIsTakenOverNotExpired(t *testing.T) {
	var clock struct {
		mu  sync.Mutex
		now time.Time
	}
	clock.now = time.Unix(1000, 0)
	in := bench.Build("betrfs-v0.6", 256)
	cfg := fsserve.DefaultConfig()
	cfg.SessionLease = time.Minute
	cfg.LeaseNow = func() time.Time {
		clock.mu.Lock()
		defer clock.mu.Unlock()
		return clock.now
	}
	srv := fsserve.New(in.Env, in.Mount, cfg)
	defer srv.Shutdown()

	cli := dial(t, srv)
	if err := cli.Hello(); err != nil {
		t.Fatalf("hello: %v", err)
	}
	tok, _ := cli.Session()
	h, _, err := cli.Create("f")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := cli.Write(h, 0, []byte("live")); err != nil {
		t.Fatalf("write: %v", err)
	}

	// The lease runs out while the session is still attached to its live
	// connection.
	clock.mu.Lock()
	clock.now = clock.now.Add(2 * time.Minute)
	clock.mu.Unlock()

	c2 := dialRaw(t, srv)
	c2.send(&fsrpc.Request{Op: fsrpc.OpHello, Tag: 1, Token: tok})
	r := c2.recv()
	if r.Status != fsrpc.StatusOK || !r.Resumed {
		t.Fatalf("hello on attached session with lapsed lease = %+v, want latest-wins takeover", r)
	}
	// The handle table survived the takeover.
	c2.send(&fsrpc.Request{Op: fsrpc.OpRead, Tag: 2, Handle: h, N: 4})
	rr := c2.recv()
	if rr.Status != fsrpc.StatusOK || string(rr.Data) != "live" {
		t.Fatalf("read through surviving handle = %+v, want %q", rr, "live")
	}
	if got := in.Env.Metrics.Counter("fsserve.session.expire").Load(); got != 0 {
		t.Errorf("fsserve.session.expire = %d, want 0 (attached state expired)", got)
	}
}

// TestHelloPromoteRacesPipelinedTraffic drives chainless traffic — which
// makes the session reader stamp the lease clock, reading the state's
// token — while HELLO promotes the anonymous state on a worker, naming it
// in place. Run under -race this pins that the promotion publishes the
// token safely. InlineReplies is the configuration that runs HELLO on a
// worker: with the reply writer on, chainless ops (HELLO among them)
// execute on the session reader itself.
func TestHelloPromoteRacesPipelinedTraffic(t *testing.T) {
	in := bench.Build("betrfs-v0.6", 256)
	cfg := fsserve.DefaultConfig()
	cfg.Workers = 4
	cfg.InlineReplies = true // HELLO and reads run on workers, concurrently
	cfg.SessionLease = time.Minute
	srv := fsserve.New(in.Env, in.Mount, cfg)
	defer srv.Shutdown()

	cliEnd, srvEnd := net.Pipe()
	go srv.ServeConn(srvEnd)
	cli := fsrpc.NewClientOpts(cliEnd, fsrpc.Options{Window: 8})
	t.Cleanup(func() { cli.Close() })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = cli.Getattr("nope")
		}
	}()
	if err := cli.Hello(); err != nil {
		t.Fatalf("hello: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := cli.Mkdir("after"); err != nil {
		t.Fatalf("mkdir on the promoted session: %v", err)
	}
}
