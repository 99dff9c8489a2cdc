package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"cuckoohash/client"
)

// daemon is one cuckood process started at its defaults (8 shards of
// 65,536 slots), listening on a free loopback port with its admin
// endpoint on another.
type daemon struct {
	cmd      *exec.Cmd
	addr     string
	admin    string
	ctl      *client.Conn // STATS connection, never used for load
	logsDone chan struct{}
}

func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start cuckood: %w", err)
	}
	d := &daemon{cmd: cmd, logsDone: make(chan struct{})}
	addrs := make(chan [2]string, 1)
	found := addrs
	go func() {
		// Read the log until the daemon exits: the listen and admin
		// addresses come from it, and an unread pipe would block the
		// daemon's logger.
		defer close(d.logsDone)
		var listen, admin string
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.Contains(line, "msg=listening "):
				listen = logField(line, "addr")
			case strings.Contains(line, `msg="admin endpoint up"`):
				admin = logField(line, "addr")
			default:
				continue
			}
			if listen != "" && admin != "" && addrs != nil {
				addrs <- [2]string{listen, admin}
				addrs = nil
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-found:
		d.addr, d.admin = a[0], a[1]
	case <-d.logsDone:
		d.stop()
		return nil, errors.New("cuckood exited before listening")
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, errors.New("cuckood did not report its addresses within 10s")
	}
	if d.ctl, err = client.Dial(d.addr); err != nil {
		d.stop()
		return nil, fmt.Errorf("dial cuckood: %w", err)
	}
	return d, nil
}

// logField extracts key=value from a text-format log line.
func logField(line, key string) string {
	i := strings.Index(line, " "+key+"=")
	if i < 0 {
		return ""
	}
	v := line[i+len(key)+2:]
	if j := strings.IndexByte(v, ' '); j >= 0 {
		v = v[:j]
	}
	return v
}

// stop drains the daemon with SIGINT, kills it if the drain hangs, and
// waits until the process and its log reader have ended.
func (d *daemon) stop() {
	if d.ctl != nil {
		d.ctl.Close()
	}
	d.cmd.Process.Signal(os.Interrupt)
	done := make(chan struct{})
	go func() {
		d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
	<-d.logsDone
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// counters is a STATS reply or a /metrics scrape, numeric fields only.
type counters map[string]float64

func (d *daemon) stats() (counters, error) {
	raw, err := d.ctl.Stats()
	if err != nil {
		return nil, fmt.Errorf("STATS: %w", err)
	}
	out := counters{}
	for k, v := range raw {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			out[k] = f
		}
	}
	return out, nil
}

// adminClient bounds each scrape, so a hung daemon fails the run instead
// of stalling it.
var adminClient = &http.Client{Timeout: 10 * time.Second}

func (d *daemon) get(path string) (string, error) {
	resp, err := adminClient.Get("http://" + d.admin + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return string(b), nil
}

// metrics scrapes the daemon's /metrics, unlabelled samples only.
func (d *daemon) metrics() (counters, error) {
	body, err := d.get("/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	out := counters{}
	for _, line := range strings.Split(body, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = f
		}
	}
	return out, nil
}

// collectGarbage makes the daemon run a full GC: the heap profile
// handler does so before it writes the profile when asked with gc=1.
func (d *daemon) collectGarbage() error {
	_, err := d.get("/debug/pprof/heap?gc=1")
	return err
}

// procSample is the daemon's CPU time and syscall counts from /proc.
type procSample struct {
	user, sys    time.Duration
	syscr, syscw float64
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

func readProc(pid int) (procSample, error) {
	var p procSample
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return p, err
	}
	// Fields after the parenthesized command name start at field 3.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return p, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	p.user, p.sys = time.Duration(ut)*clockTick, time.Duration(st)*clockTick
	b, err = os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return p, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, _ := strings.Cut(line, ": ")
		n, _ := strconv.ParseFloat(v, 64)
		switch k {
		case "syscr":
			p.syscr = n
		case "syscw":
			p.syscw = n
		}
	}
	return p, nil
}
