package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"optsync"
	"optsync/internal/fabric"
)

func TestFabricCLIErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"serve", "-store", t.TempDir()}, "-axis"},
		{[]string{"serve", "-axis", "faulty=0,1"}, "-store"},
		{[]string{"serve", "-axis", "faulty=0,1", "-store", t.TempDir(), "-csv", "-json"}, "mutually exclusive"},
		{[]string{"work"}, "-coordinator"},
		{[]string{"work", "-coordinator", "http://x", "stray"}, "unexpected argument"},
	} {
		_, err := capture(t, func() error { return run(tc.args) })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want error mentioning %q", tc.args, err, tc.want)
		}
	}
}

// buildSyncsim compiles the binary once into a temp dir for the
// separate-process fleet tests.
func buildSyncsim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "syncsim")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// scanForPrefixes streams r line by line into t's log and sends the
// first line matching each prefix on that prefix's channel (a single
// scanner owns the reader, and it keeps draining afterwards so the
// child process never blocks on a full pipe).
func scanForPrefixes(t *testing.T, r io.Reader, prefixes ...string) []<-chan string {
	t.Helper()
	chans := make([]chan string, len(prefixes))
	out := make([]<-chan string, len(prefixes))
	for i := range prefixes {
		chans[i] = make(chan string, 1)
		out[i] = chans[i]
	}
	go func() {
		sc := bufio.NewScanner(r)
		sent := make([]bool, len(prefixes))
		for sc.Scan() {
			line := sc.Text()
			t.Log(line)
			for i, prefix := range prefixes {
				if !sent[i] && strings.HasPrefix(line, prefix) {
					chans[i] <- line
					sent[i] = true
				}
			}
		}
		for i, s := range sent {
			if !s {
				close(chans[i])
			}
		}
	}()
	return out
}

func scanForPrefix(t *testing.T, r io.Reader, prefix string) <-chan string {
	t.Helper()
	return scanForPrefixes(t, r, prefix)[0]
}

func waitLine(t *testing.T, ch <-chan string, what string) string {
	t.Helper()
	select {
	case line, ok := <-ch:
		if !ok {
			t.Fatalf("%s: stream ended without the expected line", what)
		}
		return line
	case <-time.After(60 * time.Second):
		t.Fatalf("%s: timed out", what)
		return ""
	}
}

var fabricSpecArgs = []string{"-n", "5", "-horizon", "4", "-axis", "faulty=0,1", "-seeds", "2"}

// TestServeWorkSeparateProcesses is the distribution test at full
// fidelity: a coordinator process and two worker processes — one of
// which is SIGKILLed mid-campaign — settle the campaign, and the
// coordinator's aggregates are byte-identical to a single-process
// campaign run of the same sweep. The killed worker's leased cells are
// reclaimed after the TTL, so nothing is lost.
func TestServeWorkSeparateProcesses(t *testing.T) {
	// Reference: the same sweep, single-process, in-process.
	want, err := capture(t, func() error {
		return run(append([]string{"campaign"}, append(fabricSpecArgs, "-csv")...))
	})
	if err != nil {
		t.Fatal(err)
	}

	bin := buildSyncsim(t)
	storeDir := t.TempDir() + "/store"

	serve := exec.Command(bin, append([]string{"serve",
		"-store", storeDir, "-addr", "127.0.0.1:0",
		"-lease-ttl", "1s", "-lease-batch", "1", "-linger", "200ms", "-csv"},
		fabricSpecArgs...)...)
	serveErr, err := serve.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	var serveOut strings.Builder
	serve.Stdout = &serveOut
	readyLine := scanForPrefix(t, serveErr, "serving campaign on ")
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	defer serve.Process.Kill()
	line := waitLine(t, readyLine, "serve readiness")
	url := strings.TrimPrefix(line, "serving campaign on ")
	url = strings.Fields(url)[0]

	workCmd := func(name string) (*exec.Cmd, io.ReadCloser) {
		cmd := exec.Command(bin, "work", "-coordinator", url,
			"-name", name, "-batch", "1", "-poll", "50ms", "-backoff", "20ms")
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		return cmd, stderr
	}

	// Doomed worker: SIGKILL as soon as it has executed its first cell,
	// i.e. while it very likely holds a fresh lease it will never report.
	doomed, doomedErr := workCmd("doomed")
	doomedProgress := scanForPrefix(t, doomedErr, "worker: 1 cells")
	if err := doomed.Start(); err != nil {
		t.Fatal(err)
	}
	waitLine(t, doomedProgress, "doomed worker first cell")
	doomed.Process.Kill()
	doomed.Wait()

	// Survivor: finishes everything, including the reclaimed cells.
	survivor, survivorErr := workCmd("survivor")
	survivorDone := scanForPrefix(t, survivorErr, "campaign complete:")
	if err := survivor.Start(); err != nil {
		t.Fatal(err)
	}
	waitLine(t, survivorDone, "survivor completion")
	if err := survivor.Wait(); err != nil {
		t.Fatalf("survivor exited: %v", err)
	}
	if err := serve.Wait(); err != nil {
		t.Fatalf("serve exited: %v", err)
	}

	if got := serveOut.String(); got != want {
		t.Fatalf("fleet aggregates differ from single-process run:\n--- fleet\n%s--- single\n%s", got, want)
	}

	// The served store resumes a plain single-process campaign run with
	// zero executions and, again, byte-identical output.
	resumed, err := capture(t, func() error {
		return run(append([]string{"campaign", "-store", storeDir}, append(fabricSpecArgs, "-csv")...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed != want {
		t.Fatalf("resume over fleet store drifted:\n%s\nvs\n%s", resumed, want)
	}
}

// TestServeKilledMidCampaignResumes is the coordinator's own crash test,
// at process fidelity: `syncsim serve` is SIGKILLed after it has accepted
// three of four cells — no shutdown, no seal, the store left as one
// unsealed segment under cells/ — and a second serve on the same store
// must find all three (cached, not re-run), settle the fourth through a
// worker, print aggregates byte-identical to the single-process run, and
// leave a sealed store behind.
func TestServeKilledMidCampaignResumes(t *testing.T) {
	want, err := capture(t, func() error {
		return run(append([]string{"campaign"}, append(fabricSpecArgs, "-csv")...))
	})
	if err != nil {
		t.Fatal(err)
	}
	bin := buildSyncsim(t)
	storeDir := t.TempDir() + "/store"
	startServe := func(stdout io.Writer) (*exec.Cmd, string, <-chan string) {
		serve := exec.Command(bin, append([]string{"serve",
			"-store", storeDir, "-addr", "127.0.0.1:0", "-linger", "200ms", "-csv"},
			fabricSpecArgs...)...)
		serveErr, err := serve.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		serve.Stdout = stdout
		lines := scanForPrefixes(t, serveErr, "serving campaign on ", "4 cells: ")
		if err := serve.Start(); err != nil {
			t.Fatal(err)
		}
		ready := waitLine(t, lines[0], "serve readiness")
		return serve, strings.Fields(strings.TrimPrefix(ready, "serving campaign on "))[0], lines[1]
	}
	post := func(url string, req, resp any) {
		t.Helper()
		blob, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		hr, err := http.Post(url, "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		if err := json.NewDecoder(hr.Body).Decode(resp); err != nil || hr.StatusCode != http.StatusOK {
			t.Fatalf("POST %s = %s (%v)", url, hr.Status, err)
		}
	}

	// First coordinator: the test plays the worker, so exactly three
	// cells are accepted — the /report has been answered — at the kill.
	first, url, _ := startServe(io.Discard)
	defer first.Process.Kill()
	var lease fabric.LeaseResponse
	post(url+"/lease", fabric.LeaseRequest{Worker: "test", Max: 3}, &lease)
	report := fabric.ReportRequest{Worker: "test"}
	for _, cell := range lease.Cells {
		res, err := optsync.Run(context.Background(), cell.Spec)
		if err != nil {
			t.Fatal(err)
		}
		report.Cells = append(report.Cells, fabric.CellReport{Index: cell.Index, Key: cell.Key, Result: res})
	}
	var ack fabric.ReportResponse
	post(url+"/report", report, &ack)
	if ack.Accepted != 3 {
		t.Fatalf("report acknowledged %+v, want 3 accepted", ack)
	}
	if err := first.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	first.Wait()
	if left, _ := filepath.Glob(filepath.Join(storeDir, "cells", "open-*.jsonl")); len(left) != 1 {
		t.Fatalf("killed coordinator left %v under cells/, want its one unsealed segment", left)
	}
	if _, err := os.Stat(filepath.Join(storeDir, "segments", "index.json")); err == nil {
		t.Fatal("killed coordinator had sealed: the test exercised nothing")
	}

	// Second coordinator, same store.
	var out strings.Builder
	second, url, summary := startServe(&out)
	defer second.Process.Kill()
	hr, err := http.Get(url + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	var progress fabric.Progress
	err = json.NewDecoder(hr.Body).Decode(&progress)
	hr.Body.Close()
	if err != nil || progress.CacheHits != 3 || progress.Done != 3 || progress.Store.LinesRecovered != 3 || progress.Store.TornTails != 0 {
		t.Fatalf("restarted coordinator's progress = %+v (%v), want the three accepted cells cached", progress, err)
	}
	work := exec.Command(bin, "work", "-coordinator", url, "-batch", "1", "-poll", "50ms", "-quiet")
	if blob, err := work.CombinedOutput(); err != nil {
		t.Fatalf("worker: %v\n%s", err, blob)
	}
	if line := waitLine(t, summary, "serve summary"); line != "4 cells: 1 executed, 3 cached" {
		t.Fatalf("restarted coordinator settled %q, want 1 executed + 3 cached", line)
	}
	if err := second.Wait(); err != nil {
		t.Fatalf("serve exited: %v", err)
	}
	if out.String() != want {
		t.Fatalf("aggregates after kill and restart differ from the single-process run:\n--- fleet\n%s--- single\n%s", out.String(), want)
	}
	if left, _ := filepath.Glob(filepath.Join(storeDir, "cells", "*")); len(left) != 0 {
		t.Fatalf("a cleanly exited coordinator left %v under cells/", left)
	}
	if _, err := os.Stat(filepath.Join(storeDir, "segments", "index.json")); err != nil {
		t.Fatal(err)
	}
}

// TestServeInterruptGraceful SIGINTs an idle coordinator (no workers
// attached) and expects a clean exit with the interrupted/resume notice
// — the signal.NotifyContext path end to end.
func TestServeInterruptGraceful(t *testing.T) {
	bin := buildSyncsim(t)
	serve := exec.Command(bin, append([]string{"serve",
		"-store", t.TempDir() + "/store", "-addr", "127.0.0.1:0"},
		fabricSpecArgs...)...)
	serveErr, err := serve.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	notices := scanForPrefixes(t, serveErr, "serving campaign on ", "interrupted:")
	ready, interrupted := notices[0], notices[1]
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	defer serve.Process.Kill()
	waitLine(t, ready, "serve readiness")
	if err := serve.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	notice := waitLine(t, interrupted, "interrupt notice")
	if !strings.Contains(notice, "0/4 cells settled") {
		t.Fatalf("interrupt notice = %q, want 0/4 settled", notice)
	}
	if err := serve.Wait(); err != nil {
		t.Fatalf("interrupted serve exited non-zero: %v", err)
	}
}

// TestWorkInterruptGraceful SIGTERMs a worker stuck polling — the test
// leases every cell to a phantom sibling first, so the worker has
// nothing to do — and expects a clean exit carrying its stats.
func TestWorkInterruptGraceful(t *testing.T) {
	bin := buildSyncsim(t)
	storeDir := t.TempDir() + "/store"
	serve := exec.Command(bin, append([]string{"serve",
		"-store", storeDir, "-addr", "127.0.0.1:0", "-lease-ttl", "10m"},
		fabricSpecArgs...)...)
	serveErr, err := serve.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	ready := scanForPrefix(t, serveErr, "serving campaign on ")
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	defer serve.Process.Kill()
	line := waitLine(t, ready, "serve readiness")
	url := strings.Fields(strings.TrimPrefix(line, "serving campaign on "))[0]

	// Phantom worker checks out every cell and never reports.
	resp, err := http.Post(url+"/lease", "application/json",
		strings.NewReader(`{"worker":"phantom","max":100}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	work := exec.Command(bin, "work", "-coordinator", url, "-poll", "50ms")
	workErr, err := work.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	interrupted := scanForPrefix(t, workErr, "interrupted:")
	if err := work.Start(); err != nil {
		t.Fatal(err)
	}
	defer work.Process.Kill()
	time.Sleep(300 * time.Millisecond) // let it enter the poll loop
	if err := work.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	notice := waitLine(t, interrupted, "worker interrupt notice")
	if !strings.Contains(notice, "0 cells executed") {
		t.Fatalf("worker interrupt notice = %q", notice)
	}
	if err := work.Wait(); err != nil {
		t.Fatalf("interrupted worker exited non-zero: %v", err)
	}
}
