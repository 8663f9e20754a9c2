package main

// Multi-process cluster smoke: build the real binary, boot a
// coordinator with -replicas=2 fronting three shard processes, check
// the coordinator's answer to a tall inline diff is byte-identical to
// a single node's, send a seeded ref-diff burst through the typed
// client and read the ref-route hit ratio from the coordinator's
// /debug/vars, then kill one shard and check every reference still
// reads byte-identical from its replica — zero 404s, before any
// rebalance. Gated behind SYSRLE_CLUSTER_SMOKE=1 because it compiles
// a binary and forks four daemons — `make cluster-smoke` sets the
// gate.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"mime/multipart"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sysrle/internal/apiclient"
	"sysrle/internal/imageio"
	"sysrle/internal/rle"
	"sysrle/internal/workload"
)

func buildBinary(t *testing.T, dir, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	return filepath.Dir(strings.TrimSpace(string(out)))
}

// startDaemon launches one sysdiffd process on an ephemeral port and
// returns its base URL, parsed from the "sysdiffd listening" log line.
func startDaemon(t *testing.T, bin string, args ...string) string {
	url, _ := startKillableDaemon(t, bin, args...)
	return url
}

// startKillableDaemon is startDaemon plus a hard-kill switch, so the
// smoke test can model shard death mid-run.
func startKillableDaemon(t *testing.T, bin string, args ...string) (string, func()) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", bin, err)
	}
	var killed bool
	kill := func() {
		if !killed {
			killed = true
			cmd.Process.Kill()
			cmd.Wait()
		}
	}
	t.Cleanup(kill)

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, "sysdiffd listening") {
				for _, f := range strings.Fields(line) {
					if a, ok := strings.CutPrefix(f, "addr="); ok {
						addrCh <- a
					}
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return "http://" + addr, kill
	case <-time.After(15 * time.Second):
		t.Fatalf("%s %v never logged its listen address", bin, args)
		return "", nil
	}
}

func waitReady(t *testing.T, base string) {
	t.Helper()
	c := apiclient.MustNew(base, apiclient.Options{Timeout: 2 * time.Second})
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Ready(context.Background())
		if err == nil && st.Ready {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("%s never became ready", base)
}

func TestClusterSmoke(t *testing.T) {
	if os.Getenv("SYSRLE_CLUSTER_SMOKE") != "1" {
		t.Skip("set SYSRLE_CLUSTER_SMOKE=1 (or run `make cluster-smoke`) to run the multi-process smoke")
	}
	dir := t.TempDir()
	sysdiffd := buildBinary(t, dir, "./cmd/sysdiffd")

	shard1 := startDaemon(t, sysdiffd)
	shard2 := startDaemon(t, sysdiffd)
	shard3, killShard3 := startKillableDaemon(t, sysdiffd)
	coord := startDaemon(t, sysdiffd,
		"-coordinator", "-peers", shard1+","+shard2+","+shard3, "-replicas", "2")
	for _, base := range []string{shard1, shard2, shard3, coord} {
		waitReady(t, base)
	}

	// A tall inline diff is forwarded whole: the coordinator's answer
	// must be byte-identical to a single shard's.
	rng := workloadRNG(41)
	a, b := smokeImage(t, rng, 320, 400), smokeImage(t, rng, 320, 400)
	single := rawDiff(t, shard1, a, b)
	clustered := rawDiff(t, coord, a, b)
	if !bytes.Equal(single, clustered) {
		t.Fatalf("coordinator diff differs from single node (%d vs %d bytes)",
			len(single), len(clustered))
	}

	// Seeded ref-diff burst: every diff answers, and each one was
	// routed to its reference's owners (hit ratio 1).
	coordClient := apiclient.MustNew(coord, apiclient.Options{Timeout: 5 * time.Second})
	ctx := context.Background()
	rng = workloadRNG(5)
	var refIDs []string
	var scans []*rle.Image
	for i := 0; i < 4; i++ {
		meta, err := coordClient.PutReference(ctx, smokeImage(t, rng, 256, 128))
		if err != nil {
			t.Fatalf("PutReference %d: %v", i, err)
		}
		refIDs = append(refIDs, meta.ID)
		scans = append(scans, smokeImage(t, rng, 256, 128))
	}
	const burst = 32
	errs := make(chan error, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		req := apiclient.DiffRequest{RefID: refIDs[rng.Intn(len(refIDs))], B: scans[rng.Intn(len(scans))]}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := coordClient.Diff(ctx, req); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("ref diff burst: %v", err)
	}
	vars, err := coordClient.Vars(ctx)
	if err != nil {
		t.Fatalf("coordinator /debug/vars: %v", err)
	}
	hits := counterTotal(t, vars, "sysrle_cluster_ref_route_hits_total")
	misses := counterTotal(t, vars, "sysrle_cluster_ref_route_misses_total")
	if hits != burst || misses != 0 {
		t.Fatalf("ref-route hit ratio %d/%d, want %d/%d", hits, hits+misses, burst, burst)
	}

	// Replication failover: register references, kill one shard, and
	// every reference must still read byte-identical canonical RLEB
	// through the coordinator — zero 404s — before any rebalance runs.
	content := map[string][]byte{}
	for i := 0; i < 6; i++ {
		img := smokeImage(t, workloadRNG(int64(90+i)), 128, 96)
		meta, err := coordClient.PutReference(ctx, img)
		if err != nil {
			t.Fatalf("PutReference %d: %v", i, err)
		}
		var buf bytes.Buffer
		if err := imageio.Write(&buf, "rleb", img); err != nil {
			t.Fatal(err)
		}
		content[meta.ID] = buf.Bytes()
	}
	killShard3()
	for id, want := range content {
		resp, err := http.Get(coord + "/v1/references/" + id + "/content")
		if err != nil {
			t.Fatalf("ref %s read after shard kill: %v", id[:12], err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ref %s after shard kill: status %d %s (want 200, zero 404s)",
				id[:12], resp.StatusCode, body)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("ref %s content differs after failover", id[:12])
		}
	}

	// Membership change + rebalance restores full replication; reads
	// stay byte-identical.
	reb, _ := json.Marshal(map[string][]string{"peers": {shard1, shard2}})
	resp, err := http.Post(coord+"/v1/cluster/rebalance", "application/json", bytes.NewReader(reb))
	if err != nil {
		t.Fatalf("POST rebalance: %v", err)
	}
	rebBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rebalance status %d: %s", resp.StatusCode, rebBody)
	}
	for id, want := range content {
		resp, err := http.Get(coord + "/v1/references/" + id + "/content")
		if err != nil {
			t.Fatalf("ref %s read after rebalance: %v", id[:12], err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("ref %s wrong after rebalance: status %d", id[:12], resp.StatusCode)
		}
	}
}

// rawDiff posts a diff and returns the raw rleb body, so byte-level
// equality is checked rather than decoded equality.
func rawDiff(t *testing.T, base string, a, b *rle.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	mw, err := multipartImages(&buf, map[string]*rle.Image{"a": a, "b": b})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/diff?format=rleb", mw, &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diff via %s: %d %s", base, resp.StatusCode, body)
	}
	return body
}

func multipartImages(buf *bytes.Buffer, images map[string]*rle.Image) (contentType string, err error) {
	w := multipart.NewWriter(buf)
	for field, img := range images {
		part, err := w.CreateFormFile(field, field+".rleb")
		if err != nil {
			return "", err
		}
		if err := imageio.Write(part, "rleb", img); err != nil {
			return "", err
		}
	}
	if err := w.Close(); err != nil {
		return "", err
	}
	return w.FormDataContentType(), nil
}

func workloadRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func smokeImage(t *testing.T, rng *rand.Rand, width, height int) *rle.Image {
	t.Helper()
	img, err := workload.GenerateImage(rng, workload.PaperRow(width, 0.3), height)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// counterTotal sums one counter family of a /debug/vars snapshot over
// its label sets; an absent family counts 0.
func counterTotal(t *testing.T, vars map[string]map[string]json.RawMessage, family string) int64 {
	t.Helper()
	var total int64
	for _, raw := range vars[family] {
		var v int64
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		total += v
	}
	return total
}
