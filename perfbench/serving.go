package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/ccd"
)

// setupRepeats is how many times a serving run boots its nodes; setup_s is
// the median, and the last boot serves the measured traffic.
const setupRepeats = 15

// server is one spawned serve process.
type server struct {
	cmd  *exec.Cmd
	addr string // host:port
	dir  string // -corpus-dir
	log  *os.File
}

func (s *server) url(path string) string { return "http://" + s.addr + path }

// freeAddr reserves an ephemeral loopback port for a child process.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServe spawns serve with its corpus in dir and waits until /readyz
// answers 200. It returns the spawn-to-ready time.
func startServe(cfg config, dir string, extra ...string) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(dir, "serve.log"))
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{"-addr", addr, "-corpus-dir", dir, "-log-level", "warn"}, extra...)
	cmd := exec.Command(cfg.serveBin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A benchmark process that dies for any reason takes its nodes along.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	s := &server{cmd: cmd, addr: addr, dir: dir, log: logf}
	hc := &http.Client{Timeout: time.Second}
	for time.Since(start) < 120*time.Second {
		resp, err := hc.Get(s.url("/readyz"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.kill()
	return nil, 0, fmt.Errorf("serve on %s not ready after 120s (log: %s)", addr, logf.Name())
}

// kill stops the process with SIGKILL and reaps it.
func (s *server) kill() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	s.cmd.Process.Kill()
	s.cmd.Wait()
	s.log.Close()
}

// bootNodes boots the node setupRepeats times from fresh copies of snap and
// returns the last boot plus the median spawn-to-ready time.
func bootNodes(cfg config, runDir, snap string, rep *report) (*server, error) {
	var setups []float64
	var srv *server
	for k := 0; k < setupRepeats; k++ {
		dir := filepath.Join(runDir, fmt.Sprintf("node-%d", k))
		if err := copyFile(snap, filepath.Join(dir, filepath.Base(snap))); err != nil {
			return nil, err
		}
		s, d, err := startServe(cfg, dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if k < setupRepeats-1 {
			s.kill()
		} else {
			srv = s
		}
	}
	rep.gate("setup_s", "s", median(setups), len(setups))
	return srv, nil
}

// --- /proc sampling ----------------------------------------------------------

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat (100
// on every Linux architecture Go supports).
const clockTicks = 100

// procCPU returns utime+stime of pid.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is field 3, utime
	// and stime are fields 14 and 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procHWM returns the peak resident set (VmHWM) of pid in MiB.
func procHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuOf sums the CPU time of the given server processes.
func cpuOf(srvs ...*server) (time.Duration, error) {
	var sum time.Duration
	for _, s := range srvs {
		c, err := procCPU(s.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// --- HTTP operations -----------------------------------------------------------

// newHTTPClient returns a client whose transport holds at most conns
// connections: the generator's request-issuing goroutines share it.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// postJSON posts body and decodes a 200 answer into out. A transport error
// or any other status is reported as err.
func postJSON(hc *http.Client, url string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := hc.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, out)
}

// matchResponse is the /v1/match single-query answer.
type matchResponse struct {
	Matches  []ccd.Match `json:"matches"`
	Partial  bool        `json:"partial"`
	Degraded []string    `json:"degraded"`
	Error    string      `json:"error"`
}

func (m matchResponse) degraded() bool { return m.Partial || len(m.Degraded) > 0 }

// topK is the match limit every benchmark query asks for.
const topK = 10

// checkMatch validates one /v1/match answer and returns why it is wrong
// ("" when it is right). Every answer must be well formed: at most topK
// matches, best first with ties by id. With hasRef, ref is the full sorted
// reference match list: a full-quality answer must equal its topK prefix
// exactly, a degraded one may only contain reference matches with their
// reference scores.
func checkMatch(m matchResponse, ref []ccd.Match, hasRef bool) string {
	if m.Error != "" {
		return "error: " + m.Error
	}
	if len(m.Matches) > topK {
		return fmt.Sprintf("%d matches for limit %d", len(m.Matches), topK)
	}
	if !sort.SliceIsSorted(m.Matches, func(i, j int) bool {
		a, b := m.Matches[i], m.Matches[j]
		return a.Score > b.Score || a.Score == b.Score && a.ID < b.ID
	}) {
		return fmt.Sprintf("matches out of order: %v", m.Matches)
	}
	if !hasRef {
		return ""
	}
	if m.degraded() {
		scores := make(map[string]float64, len(ref))
		for _, r := range ref {
			scores[r.ID] = r.Score
		}
		for _, x := range m.Matches {
			if s, ok := scores[x.ID]; !ok || s != x.Score {
				return fmt.Sprintf("degraded answer holds %v, not in the reference", x)
			}
		}
		return ""
	}
	want := ref[:min(topK, len(ref))]
	if !slices.Equal(m.Matches, want) {
		return fmt.Sprintf("top %d = %v, reference %v", topK, m.Matches, want)
	}
	return ""
}

// perturb breaks every reference answer (drops its best match, or invents
// one when it is empty), for the --wrong-reference self-test.
func perturb(refs map[int][]ccd.Match) {
	for i, ms := range refs {
		if len(ms) > 0 {
			refs[i] = ms[1:]
		} else {
			refs[i] = []ccd.Match{{ID: "no-such-contract", Score: 100}}
		}
	}
}

// httpMatch returns an opFunc issuing /v1/match for query pick(i).
func httpMatch(hc *http.Client, srv *server, qs []input, refs map[int][]ccd.Match, pick func(int) int) opFunc {
	return func(i int, o *outcome) {
		o.kind = "match"
		qi := pick(i)
		var m matchResponse
		err := postJSON(hc, srv.url("/v1/match"), map[string]any{"source": qs[qi].Source, "limit": topK}, &m)
		o.end = time.Now()
		if err != nil {
			o.err = true
			return
		}
		o.degraded = m.degraded()
		ref, hasRef := refs[qi]
		o.judge(checkMatch(m, ref, hasRef))
	}
}

// --- serving phases ------------------------------------------------------------

// servingPlan is one serving workload's fixed load: the open-loop rate and
// the closed-loop latency limit are constants of the workload, never probed.
type servingPlan struct {
	rate  float64       // open-loop arrivals per second
	limit time.Duration // closed-loop latency limit for capacity
	// open and closed issue operation i of the respective phase.
	open, closed opFunc
}

// phaseDurations splits the measured seconds: 70% open loop, 30% closed
// loop.
func phaseDurations(seconds int) (open, closed time.Duration) {
	total := time.Duration(seconds) * time.Second
	closed = total * 3 / 10
	return total - closed, closed
}

// conns is the generator's connection and goroutine budget: one per CPU.
func conns() int { return runtime.NumCPU() }

// runServing drives the open-loop then the closed-loop phase against srvs,
// checks every answer, and records the serving metrics.
func runServing(cfg config, rep *report, plan servingPlan, srvs ...*server) (open loopStats, err error) {
	openDur, closedDur := phaseDurations(cfg.seconds)
	// Warm-up: a short closed loop lets connection setup and lazy state
	// settle before anything is timed. Its answers are checked too.
	warm := closedLoop(time.Second, conns(), func(i int, o *outcome) { plan.closed(-1-i, o) })
	for _, o := range warm.outcomes {
		rep.count(o)
	}

	cpu0, err := cpuOf(srvs...)
	if err != nil {
		return open, err
	}
	open = openLoop(poisson(cfg.seed, plan.rate, openDur), conns(), 30*time.Second, plan.open)
	closed := closedLoop(closedDur, conns(), plan.closed)
	cpu1, err := cpuOf(srvs...)
	if err != nil {
		return open, err
	}
	rss := 0.0
	for _, s := range srvs {
		h, err := procHWM(s.cmd.Process.Pid)
		if err != nil {
			return open, err
		}
		rss += h
	}

	countOutcomes(rep, open, closed)
	// Answered operations (2xx), the degraded ones among them, failures, and
	// the correct full-quality answers that cpu_ms_per_op divides by: a
	// degraded answer is cheaper, so counting it would read more degradation
	// as a CPU gain.
	answered, degraded, failed, full := 0, 0, 0, 0
	for _, st := range []loopStats{open, closed} {
		for _, o := range st.outcomes {
			if !o.err {
				answered++
				if o.degraded {
					degraded++
				}
			}
			if o.failed() {
				failed++
			} else if !o.degraded {
				full++
			}
		}
	}
	rep.add("cpu_ms_per_op", "ms", ratio(ms(cpu1-cpu0), float64(full)), full)
	rep.gate("rss_mb", "MiB", rss, len(srvs))
	for _, kind := range []string{"match", "ingest", "analyze"} {
		if l := latencies(open.outcomes, kind); len(l) > 0 {
			rep.latency(kind, l)
		}
	}
	rep.add("capacity_rps", "req/s", goodput(closed, plan.limit, closedDur), len(closed.outcomes))
	attempted := len(open.outcomes) + len(closed.outcomes)
	rep.add("failed_share", "ratio", ratio(float64(failed), float64(attempted)), attempted)
	rep.add("degraded_share", "ratio", ratio(float64(degraded), float64(answered)), answered)
	lates := lateMs(open.outcomes)
	rep.add("gen.late_p98_ms", "ms", quantile(lates, 0.98), len(lates))
	rep.add("gen.backlog_max", "count", float64(open.backlogMax), len(open.outcomes))
	rep.add("gen.open_rate", "req/s", float64(len(open.outcomes))/openDur.Seconds(), len(open.outcomes))
	if open.lateGrew {
		rep.note("generator lateness grew during the open loop: the offered rate exceeds what the system sustains; this run's latencies are invalid")
	}
	return open, nil
}
