package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// helperEnv makes the test binary act as a generator: spawn a daisd,
// print its pid, then block as a run would until signalled.
const helperEnv = "DAIS_BENCH_HELPER_DAISD"

func TestMain(m *testing.M) {
	if bin := os.Getenv(helperEnv); bin != "" {
		os.Exit(helperMain(bin))
	}
	os.Exit(m.Run())
}

func helperMain(bin string) int {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	ps := &procSet{}
	defer ps.stopAll()
	pr, err := ps.spawn(ctx, filepath.Dir(bin), "helper-daisd", bin, daisdArgs()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(pr.pid())
	<-ctx.Done()
	return 0
}

// processGone reports whether pid has exited (or is a zombie awaiting
// its reaper, which for an orphan is init).
func processGone(pid int) bool {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return true
	}
	if i := strings.LastIndexByte(string(data), ')'); i >= 0 {
		return strings.HasPrefix(strings.TrimSpace(string(data[i+1:])), "Z")
	}
	return false
}

// TestNoServerSurvivesTheGenerator kills a generator mid-run — once
// politely, once outright — and checks that its daisd is gone.
func TestNoServerSurvivesTheGenerator(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/daisd")
	}
	bin := filepath.Join(t.TempDir(), "daisd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/daisd")
	build.Dir = ".." // the repository root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build daisd: %v\n%s", err, out)
	}
	for _, sig := range []syscall.Signal{syscall.SIGTERM, syscall.SIGKILL} {
		t.Run(sig.String(), func(t *testing.T) {
			helper := exec.Command(os.Args[0])
			helper.Env = append(os.Environ(), helperEnv+"="+bin)
			helper.Stderr = os.Stderr
			stdout, err := helper.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := helper.Start(); err != nil {
				t.Fatal(err)
			}
			defer helper.Process.Kill() //nolint:errcheck // already gone on the success path
			line, err := bufio.NewReader(stdout).ReadString('\n')
			if err != nil {
				t.Fatalf("helper did not report a server pid: %v", err)
			}
			pid, err := strconv.Atoi(strings.TrimSpace(line))
			if err != nil {
				t.Fatalf("helper reported %q", line)
			}
			if processGone(pid) {
				t.Fatalf("daisd %d is not running before the kill", pid)
			}
			if err := helper.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
			helper.Wait() //nolint:errcheck // killed by the signal above
			deadline := time.Now().Add(5 * time.Second)
			for !processGone(pid) {
				if time.Now().After(deadline) {
					syscall.Kill(pid, syscall.SIGKILL) //nolint:errcheck // clean up the leak being reported
					t.Fatalf("daisd %d survived its generator's %v", pid, sig)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
