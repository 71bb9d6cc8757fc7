package sweep

import (
	"encoding/json"
	"net"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// startDaemon runs a real serve daemon on a loopback port and returns its
// address. The listener closes with the test; live connections drain on
// their own EOF.
func startDaemon(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go Serve(l, ServeOptions{})
	return l.Addr().String()
}

// The tentpole guarantee: a TCP-transport sweep over serve daemons merges to
// stats identical to the single-process run.
func TestSweepTCPMatchesMonolithic(t *testing.T) {
	const n = 6
	want := monolithic(t, "hash16", n, false)
	addrs := []string{startDaemon(t), startDaemon(t)}
	plan := grayPlan(t, "hash16", n, 9, false)
	got, err := Run(plan, Options{Dial: addrs})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want {
		t.Errorf("TCP sweep stats %+v, want %+v", got.Stats, want)
	}
}

// A TCP sweep over three daemons checkpoints to a manifest; rerunning the
// same invocation is the killed-coordinator recovery path and must restore
// every unit without executing anything, at byte-identical totals.
func TestSweepTCPResume(t *testing.T) {
	const n, units = 6, 12
	want := monolithic(t, "hash16", n, false)
	addrs := []string{startDaemon(t), startDaemon(t), startDaemon(t)}
	plan := grayPlan(t, "hash16", n, units, false)
	for i := range plan.Shards {
		plan.Shards[i].Source.Kind = "counted-gray"
	}
	path := filepath.Join(t.TempDir(), "tcp.manifest")

	resolveCount.Store(0)
	got, err := Run(plan, Options{Dial: addrs, Manifest: path, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want {
		t.Errorf("TCP sweep stats %+v, want %+v", got.Stats, want)
	}
	if c := resolveCount.Load(); c != units {
		t.Errorf("TCP sweep executed %d units, want %d", c, units)
	}

	resolveCount.Store(0)
	got, err = Run(plan, Options{Dial: addrs, Manifest: path, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want {
		t.Errorf("resumed TCP sweep stats %+v, want %+v", got.Stats, want)
	}
	if c := resolveCount.Load(); c != 0 {
		t.Errorf("resume executed %d units, want 0", c)
	}
	if got.Restored != units || got.Executed != 0 {
		t.Errorf("resume report %+v, want all %d units restored", got, units)
	}
}

// A `-connect "live;dead"` sweep must finish on the live daemon: every slot
// pulls from the one work queue and fails over across the whole address
// list, so the dead address's share of the units is not stranded.
func TestSweepTCPDeadGroupDoesNotStrandUnits(t *testing.T) {
	const n, units = 6, 8
	want := monolithic(t, "hash16", n, false)
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	addrs, err := ParseAddrs(startDaemon(t) + ";" + deadAddr)
	if err != nil {
		t.Fatal(err)
	}
	plan := grayPlan(t, "hash16", n, units, false)
	got, err := Run(plan, Options{Dial: addrs, Workers: len(addrs), Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want {
		t.Errorf("live;dead sweep stats %+v, want %+v", got.Stats, want)
	}
	if got.Executed != units || got.Failed != 0 {
		t.Errorf("live;dead report %+v, want all %d units executed", got, units)
	}
}

// dropServer accepts sweep connections, answers at most k units per
// connection, then slams the connection — the deterministic stand-in for a
// worker daemon killed mid-sweep. Every in-flight unit at slam time
// surfaces as a transport error at the coordinator and must be retried.
func dropServer(t *testing.T, k int) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				conn := newLineConn(nc, nc)
				if err := serverHandshake(conn); err != nil {
					return
				}
				for i := 0; i < k; i++ {
					if !conn.in.Scan() {
						return
					}
					var u Unit
					if json.Unmarshal(conn.in.Bytes(), &u) != nil {
						return
					}
					buf, _ := json.Marshal(executeUnit(u))
					if _, err := nc.Write(append(buf, '\n')); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

// A connection dropped mid-unit maps onto the retry path: the unit is
// re-dispatched, the slot rotates to the fleet's healthy daemon, and the
// merged stats stay byte-identical to the monolithic run.
func TestSweepTCPDroppedConnRetries(t *testing.T) {
	const n, units = 5, 6
	want := monolithic(t, "hash16", n, false)
	// One daemon drops after every unit, one is healthy; a single slot
	// starting on the dropper must migrate and finish everything.
	addrs := []string{dropServer(t, 1), startDaemon(t)}
	plan := grayPlan(t, "hash16", n, units, false)
	got, err := Run(plan, Options{Workers: 1, Dial: addrs, Retries: units})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want {
		t.Errorf("dropped-conn sweep stats %+v, want %+v", got.Stats, want)
	}
	if got.Retries == 0 {
		t.Errorf("dropped-conn report %+v, want retries charged", got)
	}
}

// A daemon that is down from the start is failed over inside Dial: the
// address list is walked with backoff, so the sweep completes against the
// surviving daemon without burning the retry budget.
func TestSweepTCPDeadAddressFailsOver(t *testing.T) {
	const n = 5
	want := monolithic(t, "degree", n, false)
	// A port that was listening and is now closed: connection refused.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	plan := grayPlan(t, "degree", n, 4, false)
	got, err := Run(plan, Options{
		Workers: 2,
		Dial:    []string{deadAddr, startDaemon(t)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want {
		t.Errorf("failover sweep stats %+v, want %+v", got.Stats, want)
	}
}

// No daemon at all: every dial attempt burns one unit, and the sweep
// reports failure instead of hanging.
func TestSweepTCPAllDaemonsUnreachable(t *testing.T) {
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	plan := grayPlan(t, "degree", 4, 2, false)
	_, err = Run(plan, Options{
		Workers: 1,
		Dial:    []string{deadAddr},
		Retries: 1,
	})
	if err == nil {
		t.Error("sweep against an unreachable fleet reported success")
	}
}

// The handshake must reject a peer whose registries differ — a stale binary
// on one machine of the fleet must fail at connect time, with a reason, not
// diverge silently.
func TestServeHandshakeRejectsForeignRegistry(t *testing.T) {
	addr := startDaemon(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn := newLineConn(nc, nc)
	bad := localHello()
	bad.Fingerprint = "deadbeef"
	if err := conn.enc.Encode(bad); err != nil {
		t.Fatal(err)
	}
	if !conn.in.Scan() {
		t.Fatal("server closed without replying to hello")
	}
	var reply hello
	if err := json.Unmarshal(conn.in.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Err == "" {
		t.Fatal("server accepted a foreign registry fingerprint")
	}
	if !strings.Contains(reply.Err, "fingerprint") {
		t.Errorf("rejection reason %q does not name the fingerprint", reply.Err)
	}

	// Same story for a wrong wire version.
	nc2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	conn2 := newLineConn(nc2, nc2)
	old := localHello()
	old.Version = ProtocolVersion + 1
	if err := conn2.enc.Encode(old); err != nil {
		t.Fatal(err)
	}
	if !conn2.in.Scan() {
		t.Fatal("server closed without replying to versioned hello")
	}
	var reply2 hello
	if err := json.Unmarshal(conn2.in.Bytes(), &reply2); err != nil {
		t.Fatal(err)
	}
	if reply2.Err == "" || !strings.Contains(reply2.Err, "protocol v") {
		t.Errorf("version mismatch reply %q does not name the protocol version", reply2.Err)
	}
}

// The client side of the same guard: a TCP transport pointed at an endpoint
// that is not a sweep daemon fails the dial with the magic error.
func TestClientHandshakeRejectsNonSweepEndpoint(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var served atomic.Int32
	go func() {
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			served.Add(1)
			nc.Write([]byte("{\"magic\":\"http-not-sweep\"}\n"))
			nc.Close()
		}
	}()
	tr := &TCP{Addrs: []string{l.Addr().String()}, Cycles: 1, Backoff: time.Millisecond}
	if _, err := tr.Dial(); err == nil {
		t.Error("dial of a non-sweep endpoint succeeded")
	} else if !strings.Contains(err.Error(), "sweep endpoint") {
		t.Errorf("unexpected dial error: %v", err)
	}
	if served.Load() == 0 {
		t.Error("test server never saw the connection")
	}
}

func TestParseAddrs(t *testing.T) {
	addrs, err := ParseAddrs("a:1,a:2;b:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 3 || addrs[0] != "a:1" || addrs[1] != "a:2" || addrs[2] != "b:1" {
		t.Errorf("parsed %q", addrs)
	}
	if _, err := ParseAddrs("no-port"); err == nil {
		t.Error("address without port accepted")
	}
	if _, err := ParseAddrs(" ; , "); err == nil {
		t.Error("empty address list accepted")
	}
	// Trailing separators are tolerated (shell-quoted lists often end in one).
	for _, s := range []string{"a:1;", "a:1,"} {
		if addrs, err := ParseAddrs(s); err != nil || len(addrs) != 1 {
			t.Errorf("trailing separator %q: %v %q", s, err, addrs)
		}
	}
}

// Options resolve to transports with the documented precedence: explicit
// Transport beats Dial beats in-process, and Dial defaults the slot count to
// one per address.
func TestOptionsTransportPrecedence(t *testing.T) {
	if tr, w, _ := (Options{}).transport(); w != 1 {
		t.Errorf("default: %d workers", w)
	} else if tr != Transport(InProcess{}) {
		t.Errorf("default transport %#v, want InProcess{} (direct call, no pool)", tr)
	}
	tr, w, br := (Options{Dial: []string{"a:1", "b:1", "c:1"}}).transport()
	tcp, ok := tr.(*TCP)
	if !ok {
		t.Fatalf("dial transport %T, want *TCP", tr)
	}
	if len(tcp.Addrs) != 3 || w != 3 {
		t.Errorf("dial transport addrs=%v workers=%d, want 3 slots over 3 addrs", tcp.Addrs, w)
	}
	if br == nil || tcp.Breaker != br {
		t.Error("dial transport did not receive the endpoint breaker")
	}
	if _, w, _ := (Options{Workers: 5, Dial: []string{"a:1"}}).transport(); w != 5 {
		t.Errorf("explicit workers with dial: %d, want 5", w)
	}
	if _, _, br := (Options{Dial: []string{"a:1"}, BreakerThreshold: -1}).transport(); br != nil {
		t.Error("negative BreakerThreshold did not disable the breaker")
	}
	custom := InProcess{Executor: NewExecutor(1)}
	defer custom.Executor.Close()
	if tr, _, _ := (Options{Transport: custom, Dial: []string{"a:1"}}).transport(); tr != Transport(custom) {
		t.Errorf("explicit Transport not honored: %T", tr)
	}
}
