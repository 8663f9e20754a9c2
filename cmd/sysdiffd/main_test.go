package main

import (
	"context"
	"flag"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func testOptions(t *testing.T) options {
	t.Helper()
	fs := flag.NewFlagSet("sysdiffd", flag.ContinueOnError)
	o, err := parseFlags(fs, []string{"-addr", "127.0.0.1:0", "-drain-timeout", "5s"})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func discard() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// TestGracefulShutdown is the deployment contract: the server answers
// requests, then on cancellation (what SIGINT/SIGTERM trigger via
// signal.NotifyContext) drains and run returns nil — exit code 0.
func TestGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, testOptions(t), discard(), ready) }()

	var addr net.Addr
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr.String()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	// A burst of requests in flight while the signal arrives: all must
	// complete and the drain must still exit cleanly. One connection per
	// request: a pooling client may dial a spare connection that never
	// carries a request, and Shutdown waits ~5 s before it counts such
	// a connection idle, as long as this test's drain timeout.
	burst := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := burst.Get(base + "/metrics")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	cancel()
	wg.Wait()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want nil (exit 0)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

func TestParseFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("sysdiffd", flag.ContinueOnError)
	o, err := parseFlags(fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != ":8422" || o.maxInFlight == 0 || o.requestTimeout == 0 {
		t.Errorf("unexpected defaults: %+v", o)
	}
}

func TestUnlimitedMapping(t *testing.T) {
	if got := unlimited(0); got != -1 {
		t.Errorf("unlimited(0) = %d, want -1", got)
	}
	if got := unlimited(7); got != 7 {
		t.Errorf("unlimited(7) = %d, want 7", got)
	}
}

func TestRobustnessFlags(t *testing.T) {
	fs := flag.NewFlagSet("sysdiffd", flag.ContinueOnError)
	o, err := parseFlags(fs, []string{
		"-scan-timeout", "15s",
		"-fault-inject", "rate=0.1,seed=9,kinds=slow",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.scanTimeout != 15*time.Second {
		t.Errorf("scan knobs: %+v", o)
	}
	if o.faultInject != "rate=0.1,seed=9,kinds=slow" {
		t.Errorf("fault plan: %q", o.faultInject)
	}
}

// TestBadFaultPlanRejected: a malformed -fault-inject value must fail
// startup loudly, not silently run without chaos.
func TestBadFaultPlanRejected(t *testing.T) {
	fs := flag.NewFlagSet("sysdiffd", flag.ContinueOnError)
	o, err := parseFlags(fs, []string{"-addr", "127.0.0.1:0", "-fault-inject", "kinds=quantum"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), o, discard(), nil); err == nil ||
		!strings.Contains(err.Error(), "-fault-inject") {
		t.Fatalf("run err = %v, want -fault-inject parse failure", err)
	}
}

// TestFaultInjectServes: a valid chaos plan still yields a healthy,
// ready server (faults are recovered internally).
func TestFaultInjectServes(t *testing.T) {
	fs := flag.NewFlagSet("sysdiffd", flag.ContinueOnError)
	o, err := parseFlags(fs, []string{
		"-addr", "127.0.0.1:0", "-drain-timeout", "5s",
		"-fault-inject", "rate=0.05,seed=3",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, o, discard(), ready) }()
	var addr net.Addr
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	resp, err := http.Get("http://" + addr.String() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz under chaos plan: %d, want 200", resp.StatusCode)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run returned %v", err)
	}
}

func TestSplitPeers(t *testing.T) {
	got := splitPeers(" http://a:1 , b:2,, https://c:3 ")
	want := []string{"http://a:1", "http://b:2", "https://c:3"}
	if len(got) != len(want) {
		t.Fatalf("splitPeers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("peer[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if splitPeers("  ,  ") != nil {
		t.Error("blank peer list should be nil")
	}
}
