package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestHelperPositd is not a test: it is the subprocess body for the
// crash-recovery test below. The parent re-execs the test binary with
// POSITD_HELPER=1 and the flag set in POSITD_ARGS, so the child runs
// the real positd main loop — signal handling, journal replay, job
// pool — in its own process that can be SIGKILLed.
func TestHelperPositd(t *testing.T) {
	if os.Getenv("POSITD_HELPER") != "1" {
		t.Skip("subprocess helper, not a test")
	}
	os.Exit(run(strings.Fields(os.Getenv("POSITD_ARGS")), os.Stderr))
}

// startPositd launches the helper process and waits for its listen
// line, returning the base URL and the running command.
func startPositd(t *testing.T, args string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperPositd")
	cmd.Env = append(os.Environ(), "POSITD_HELPER=1", "POSITD_ARGS="+args)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})

	// Scan stderr for the listen address, then keep draining so the
	// child never blocks on a full pipe.
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default:
			}
		}
		close(lines)
	}()
	deadline := time.After(20 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("positd exited before listening")
			}
			if _, addr, found := strings.Cut(line, "listening on "); found {
				go func() {
					for range lines {
					}
				}()
				return "http://" + addr, cmd
			}
		case <-deadline:
			t.Fatal("timed out waiting for positd to listen")
		}
	}
}

func positdJSON(t *testing.T, method, url, body string, out any) (int, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decode %v (%s)", method, url, err, raw)
		}
	}
	return resp.StatusCode, resp.Header
}

type jobStatus struct {
	ID             string          `json:"id"`
	State          string          `json:"state"`
	Recoveries     int             `json:"recoveries"`
	CheckpointIter int             `json:"checkpoint_iter"`
	Result         json.RawMessage `json:"result"`
}

func crashTestMM(n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%%%%MatrixMarket matrix coordinate real symmetric\n%d %d %d\n", n, n, 2*n-1)
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&sb, "%d %d 2\n", i, i)
	}
	for i := 2; i <= n; i++ {
		fmt.Fprintf(&sb, "%d %d -1\n", i, i-1)
	}
	return sb.String()
}

// TestCrashRecoveryBitIdentical is the hard half of the durability
// contract: SIGKILL positd mid-solve (no drain, no cleanup), restart
// it on the same journal directory, and require the recovered job to
// resume from its last fsynced checkpoint and finish with a result
// byte-identical to an uninterrupted run.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	dir := t.TempDir()
	args := "-addr 127.0.0.1:0 -quiet -job-workers 1 -jobs-dir " + dir

	base, cmd := startPositd(t, args)

	// posit32es2 software arithmetic with an unreachable tolerance: the
	// solve runs its full 3000 iterations, checkpointing every 10, so
	// there is a wide window to kill it mid-flight.
	spec := map[string]any{
		"matrix_market": crashTestMM(120), "solver": "cg", "format": "posit32es2",
		"tol": 1e-300, "max_iter": 3000, "return_x": true,
	}
	submit, err := json.Marshal(map[string]any{"solve": spec, "checkpoint_every": 10})
	if err != nil {
		t.Fatal(err)
	}
	var job jobStatus
	if code, _ := positdJSON(t, "POST", base+"/v1/jobs", string(submit), &job); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}

	// Wait until at least one checkpoint is durably journaled, then
	// SIGKILL: no signal handler runs, no drain, no graceful anything.
	waitFor(t, base, job.ID, func(s jobStatus) bool { return s.CheckpointIter >= 10 })
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	base2, _ := startPositd(t, args)
	done := waitFor(t, base2, job.ID, func(s jobStatus) bool { return s.State != "queued" && s.State != "running" })
	if done.State != "succeeded" || done.Recoveries < 1 {
		t.Fatalf("recovered job = state=%s recoveries=%d, want succeeded with >=1 recovery", done.State, done.Recoveries)
	}

	// The uninterrupted reference run, on the same server.
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var ref map[string]any
	if code, _ := positdJSON(t, "POST", base2+"/v1/solve", string(specJSON), &ref); code != 200 {
		t.Fatalf("reference solve = %d", code)
	}
	var got map[string]any
	if err := json.Unmarshal(done.Result, &got); err != nil {
		t.Fatal(err)
	}
	for _, m := range []map[string]any{ref, got} {
		delete(m, "wall_ms")
		delete(m, "ops")
	}
	if !reflect.DeepEqual(got, ref) {
		gb, _ := json.Marshal(got)
		rb, _ := json.Marshal(ref)
		t.Fatalf("recovered result diverges from uninterrupted run:\n%s\nvs\n%s", gb, rb)
	}
}

func waitFor(t *testing.T, base, id string, pred func(jobStatus) bool) jobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var s jobStatus
		if code, _ := positdJSON(t, "GET", base+"/v1/jobs/"+id, "", &s); code == 200 && pred(s) {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached the wanted condition (last: %+v)", id, s)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunFlagValidation exercises the new flags' guard rails without
// starting a server.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"job-workers", []string{"-job-workers", "0"}},
		{"checkpoint-every", []string{"-checkpoint-every", "0"}},
		{"max-queued-jobs", []string{"-max-queued-jobs", "-3"}},
		{"cache-entries", []string{"-cache-entries", "0"}},
		{"cgcap", []string{"-cgcap", "-1"}},
		{"irmax", []string{"-irmax", "0"}},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if code := run(c.args, &buf); code != 2 {
			t.Errorf("%s: exit = %d, want 2 (%s)", c.name, code, buf.String())
		}
		if !strings.Contains(buf.String(), c.name) {
			t.Errorf("%s: usage message %q does not name the flag", c.name, buf.String())
		}
	}
	// -h documents the jobs flags.
	var buf bytes.Buffer
	if code := run([]string{"-h"}, &buf); code != 2 {
		t.Errorf("-h exit = %d, want 2", code)
	}
	for _, flag := range []string{"-jobs-dir", "-job-workers", "-checkpoint-every", "-max-queued-jobs", "-cache-entries"} {
		if !strings.Contains(buf.String(), flag+" ") && !strings.Contains(buf.String(), strings.TrimPrefix(flag, "-")+" ") {
			t.Errorf("-h output missing %s", flag)
		}
	}
}
