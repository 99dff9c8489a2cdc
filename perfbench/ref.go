package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// The host's speed drifts between runs: on the 2-vCPU guest the
// benchmark was written on, the same code measured anywhere from 221K to
// 1.06M pipelined requests per second within one day, and the daemon's
// CPU time per request moved with it, so the slowdown is in the host, not
// in scheduling alone. A run therefore measures the host as well: between
// the parts of its measured window it runs fixed reference tasks of its
// own for refSlice each, and reports each gated time metric at a nominal
// reference speed (normalize). The reference code is the benchmark's own
// and calls no package of the tree under test, so no change to the
// program can move it.

// refSlice is how long one reference sample runs.
const refSlice = 40 * time.Millisecond

// The nominal reference rates: the medians of the reference samples over
// the runs the benchmark was tuned with. A normalized figure reads what
// the run would have measured on a host that ran the reference at this
// rate.
const (
	localEchoNominal = 1.3e6  // echoed messages per second, echo in this process
	procEchoNominal  = 0.85e6 // echoed messages per second, echo in its own process
	memRefNominal    = 72e6   // table touches per second
)

// normalize scales a throughput measured while the reference ran at ref
// to the reference's nominal rate. A latency or a time per op scales by
// the inverse, normalizeTime.
func normalize(rate, ref, nominal float64) float64 { return rate * nominal / ref }

func normalizeTime(t, ref, nominal float64) float64 { return t * ref / nominal }

// refMsg is one echoed message; refDepth of them go out per round, as a
// pipelined wire batch does.
const (
	refMsg   = 48
	refDepth = 16
)

// netRef is a loopback echo service of the benchmark's own: wireConns
// client connections, each sending refDepth messages per closed round,
// and an echo side that hashes every message into a 16 MiB table and
// writes back what it has read. It costs the host what a cuckood round
// trip costs it, with the program's work taken out: the syscalls on
// either side, netpoller wake-ups and hashed memory probes.
//
// A wire run keeps two of them, because the host slows a run in two ways.
// When other guests share its cores and caches, the CPU runs slower, and
// every figure slows with it. When the hypervisor takes a vCPU away
// (steal), a process that is woken waits until its vCPU runs again: the
// workload loses throughput and its round-trip tail stretches, but the
// CPU time per request and the median round trip hardly move. The local
// echo (its goroutines in this process) feels mostly the first; the
// process echo (this binary with -echo, a separate process as cuckood
// is) feels both, since each round wakes the other process. In six runs
// with 3-25% steal, pipelined throughput spread 0.38 of its median raw,
// 0.15 scaled by the process echo and 0.23 by the local one, while CPU
// per request spread 0.18 raw, 0.06 by the local echo and 0.34 by the
// process echo. So throughput is scaled by the process echo, and CPU
// time per op, the median round trip and the set-up by the local echo.
// The p90 round trip followed the process echo at depth 16 and the local
// one at depth 1, so it is reported but not scaled.
type netRef struct {
	cmd     *exec.Cmd // the process echo; nil for the local one
	stop    io.Closer // closing it ends the echo side
	clients []net.Conn
}

// startLocalEcho starts an echo whose side runs in this process.
func startLocalEcho() (*netRef, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("reference listener: %w", err)
	}
	r := &netRef{stop: ln}
	table := echoTable()
	for i := 0; i < wireConns; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			r.close()
			return nil, fmt.Errorf("reference dial: %w", err)
		}
		r.clients = append(r.clients, c)
		s, err := ln.Accept()
		if err != nil {
			r.close()
			return nil, fmt.Errorf("reference accept: %w", err)
		}
		go echo(s, table)
	}
	return r, nil
}

// startProcEcho starts an echo whose side is a process of its own.
func startProcEcho() (*netRef, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-echo")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start reference echo: %w", err)
	}
	r := &netRef{cmd: cmd, stop: stdin}
	addr, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		r.close()
		return nil, fmt.Errorf("reference echo address: %w", err)
	}
	for i := 0; i < wireConns; i++ {
		c, err := net.Dial("tcp", strings.TrimSpace(addr))
		if err != nil {
			r.close()
			return nil, fmt.Errorf("reference dial: %w", err)
		}
		r.clients = append(r.clients, c)
	}
	return r, nil
}

// rate runs closed-loop echo rounds on every client connection for d and
// returns the messages echoed per second.
func (r *netRef) rate(d time.Duration) (float64, error) {
	counts := make([]int, len(r.clients))
	errs := make([]error, len(r.clients))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			out := make([]byte, refMsg*refDepth)
			in := make([]byte, refMsg*refDepth)
			for n := 0; time.Now().Before(deadline); n++ {
				for m := 0; m < refDepth; m++ {
					hex16(out[m*refMsg:], mix64(uint64(n*refDepth+m)))
				}
				if _, err := c.Write(out); err != nil {
					errs[i] = err
					return
				}
				if _, err := io.ReadFull(c, in); err != nil {
					errs[i] = err
					return
				}
				counts[i] += refDepth
			}
		}(i, c)
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	if err := errors.Join(errs...); err != nil {
		return 0, fmt.Errorf("reference echo: %w", err)
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	return float64(total) / secs, nil
}

// close stops the echo. A process echo exits when its stdin closes; close
// kills it if it has not within 10s, and waits until it has ended.
func (r *netRef) close() {
	for _, c := range r.clients {
		c.Close()
	}
	r.stop.Close()
	if r.cmd == nil {
		return
	}
	done := make(chan struct{})
	go func() {
		r.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		r.cmd.Process.Kill()
		<-done
	}
}

// refTableWords is the size of the echo service's probe table: 16 MiB,
// past the per-core caches as cuckood's table is.
const refTableWords = 1 << 21

func echoTable() []uint64 {
	table := make([]uint64, refTableWords)
	for i := range table {
		table[i] = mix64(uint64(i))
	}
	return table
}

// echoMain is the reference echo process. It prints its loopback address,
// serves every connection until the connection closes, and exits when
// its stdin closes, so it cannot outlive the run that started it.
func echoMain() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	table := echoTable()
	fmt.Println(ln.Addr().String())
	go func() {
		io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	for {
		c, err := ln.Accept()
		if err != nil {
			fatal(err)
		}
		go echo(c, table)
	}
}

// echo writes back every whole message it has read, after probing the
// table once per message, in one write per read, as a server flushes the
// replies to one read's requests together.
func echo(c net.Conn, table []uint64) {
	defer c.Close()
	buf := make([]byte, 64*refMsg)
	have := 0
	for {
		n, err := c.Read(buf[have:])
		if err != nil {
			return
		}
		have += n
		whole := have / refMsg * refMsg
		var acc uint64
		for m := 0; m < whole; m += refMsg {
			h := uint64(0)
			for _, b := range buf[m : m+refMsg] {
				h = h*31 + uint64(b)
			}
			acc += table[mix64(h)&(refTableWords-1)]
		}
		if whole > 0 {
			buf[0] = byte(acc) | 1 // keeps the probes live; the client ignores it
			if _, err := c.Write(buf[:whole]); err != nil {
				return
			}
		}
		have = copy(buf, buf[whole:have])
	}
}

// memRef is the table workload's reference: tableWorkers goroutines
// that read and write independent random words of a table larger than
// the per-core caches, so that many cache misses overlap as they do
// across the fill's inserts and lookups.
type memRef struct{ table []uint64 }

// memRefWords is 64 MiB of words.
const memRefWords = 1 << 23

func newMemRef() *memRef {
	t := make([]uint64, memRefWords)
	for i := range t {
		t[i] = uint64(i)
	}
	return &memRef{table: t}
}

// rate returns the table touches per second over d.
func (r *memRef) rate(d time.Duration) float64 {
	counts := make([]int, tableWorkers)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for g := range counts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := uint64(g + 1)
			n := 0
			for time.Now().Before(deadline) {
				for i := 0; i < 1024; i++ {
					x = mix64(x)
					j := x & (memRefWords - 1)
					r.table[j] += r.table[j^1] | 1
				}
				n += 1024
			}
			counts[g] = n
		}(g)
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	total := 0
	for _, n := range counts {
		total += n
	}
	return float64(total) / secs
}
