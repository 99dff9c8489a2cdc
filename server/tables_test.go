package server

import (
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// verbOperands holds the operands of one minimal valid request line per
// verb. TestVerbTable fails when a verbs entry has none, so a new verb
// arrives with its example, and FuzzParseCommand seeds every verb.
var verbOperands = map[opCode]string{
	opGet:       "k",
	opSet:       "k v",
	opSetEx:     "k 1000 v",
	opDel:       "k",
	opTTL:       "k",
	opStats:     "",
	opQuit:      "",
	opCluster:   "",
	opMigrate:   "home b a 1 0 a,b",
	opHandoff:   "16",
	opIncr:      "k",
	opDecr:      "k",
	opAdd:       "k 1",
	opMaxUpdate: "k 1",
	opCAS:       "k a b",
	opMulti:     "",
	opExec:      "",
	opDiscard:   "",
	opHotKeys:   "",
	opGetV:      "k",
	opSetV:      "k 0 v",
	opLease:     "k",
	opSetLease:  "k 1 0 v",
	opReplSet:   "k 1 0 v",
	opReplDel:   "k 1",
}

// verbLine renders op's minimal valid request line.
func verbLine(op opCode) string {
	if operands := verbOperands[op]; operands != "" {
		return verbs[op].name + " " + operands
	}
	return verbs[op].name
}

func TestVerbTable(t *testing.T) {
	if len(verbOperands) != len(verbs) {
		t.Errorf("verbOperands has %d entries, verbs %d", len(verbOperands), len(verbs))
	}
	for i, v := range verbs {
		op := opCode(i)
		if v.name == "" || v.parse == nil {
			t.Fatalf("verbs[%d] is not declared", i)
		}
		if got := op.String(); got != v.name {
			t.Errorf("opCode(%d).String() = %q, want %q", i, got, v.name)
		}
		if _, ok := verbOperands[op]; !ok {
			t.Errorf("%s has no example line in verbOperands", v.name)
			continue
		}
		line := verbLine(op)
		for _, l := range []string{line, strings.ToLower(line), "TRACE t1 " + line} {
			req, err := parseRequest([]byte(l))
			if err != nil || req.op != op {
				t.Errorf("parse %q = op %v, err %v; want %s", l, req.op, err, v.name)
			}
		}
	}
	if got := opBad.String(); got != "INVALID" {
		t.Errorf("opBad.String() = %q", got)
	}

	// The stage labels are exported series labels: their set and order
	// must not move when the table changes shape.
	wantStages := []string{"GET", "SET", "DEL", "TTL", "STATS", "CLUSTER", "MIGRATE",
		"HANDOFF", "INCR", "MAXUPDATE", "CAS", "EXEC", "HOTKEYS", "LEASE", "REPL", "other"}
	if !slices.Equal(stageVerbs, wantStages) {
		t.Errorf("stageVerbs = %v, want %v", stageVerbs, wantStages)
	}
	if got := stageVerbs[opSetV.stage()]; got != "SET" {
		t.Errorf("SETV files under stage %q, want SET", got)
	}
	if got := stageVerbs[opQuit.stage()]; got != "other" {
		t.Errorf("QUIT files under stage %q, want other", got)
	}
	if got := stageVerbs[opBad.stage()]; got != "other" {
		t.Errorf("a bad line files under stage %q, want other", got)
	}

	// docs/PROTOCOL.md ("The ERR busy contract") lists these.
	var exempt []string
	for _, v := range verbs {
		if v.exempt {
			exempt = append(exempt, v.name)
		}
	}
	if want := []string{"STATS", "QUIT", "CLUSTER", "MULTI", "DISCARD", "HOTKEYS"}; !slices.Equal(exempt, want) {
		t.Errorf("-max-inflight exempt verbs = %v, want %v", exempt, want)
	}
}

// TestProtocolDocNamesEveryVerbAndStat keeps docs/PROTOCOL.md in step
// with the verb and counter tables: every verb and every STATS line
// (bar the per-shard shard<i>_entries family) must be named there.
func TestProtocolDocNamesEveryVerbAndStat(t *testing.T) {
	raw, err := os.ReadFile("../docs/PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for _, v := range verbs {
		if !strings.Contains(doc, "`"+v.name+"`") && !strings.Contains(doc, "`"+v.name+" ") {
			t.Errorf("docs/PROTOCOL.md never names verb %s", v.name)
		}
	}
	c, err := NewCache(2, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	shardLine := regexp.MustCompile(`^shard\d+_entries$`)
	for _, st := range c.Snapshot(c.Stats()) {
		if !shardLine.MatchString(st.Name) && !strings.Contains(doc, "`"+st.Name+"`") {
			t.Errorf("docs/PROTOCOL.md never names STATS field %s", st.Name)
		}
	}
}

// The intentionally one-sided series: STATS lines derived from non-scalar
// state, and Prometheus families that are histograms, labelled families
// without a scalar STATS form, or (lease_active) Server-level state the
// Cache-level STATS renderer cannot see.
var (
	statsOnlyLines = []string{"shards", "hit_ratio", "lat_samples", "lat_mean_ns",
		"lat_p50_ns", "lat_p99_ns", "lat_p999_ns", "hot_keys_tracked"}
	promOnlyFamilies = []string{"cuckood_lease_active", "cuckood_shard_entries",
		"cuckood_request_duration_seconds", "cuckoo_table_path_length", "cuckood_txn_retries",
		"cuckood_stage_seconds", "cuckood_hot_key_count", "cuckood_slow_trace_seconds"}
)

// TestStatsPrometheusParity drives a scripted workload over loopback,
// then checks that every counterTable entry reads the same from a STATS
// reply and from a /metrics scrape, and that every other series on
// either surface is on the one-sided allowlists above.
func TestStatsPrometheusParity(t *testing.T) {
	// No sweeper and no phase ticker: nothing may move a counter between
	// the STATS reply and the scrape.
	s := startServer(t, Config{Shards: 2, SlotsPerShard: 1 << 10, SweepInterval: -1, TxnPhaseInterval: -1})
	c := dialRaw(t, s)
	for _, step := range []struct{ req, want string }{
		{"SET k v", "OK"},
		{"SETEX t 60000 v", "OK"},
		{"GET k", "VALUE v"},
		{"GET absent", "MISS"},
		{"DEL k", "OK"},
		{"INCR n 5", "OK"},
		{"CAS n 5 6", "OK"},
		{"CAS n 5 7", "CONFLICT"},
		{"MULTI", "OK"},
		{"INCR n", "QUEUED"},
		{"SET m w", "QUEUED"},
		{"EXEC", "EXEC 2"},
		{"", "OK"},
		{"", "OK"},
		{"LEASE cold", "LEASE "},
		{"LEASE cold", "WAIT "},
	} {
		if step.req != "" {
			c.send(step.req + "\n")
		}
		if got := c.readLine(); !strings.HasPrefix(got, step.want) {
			t.Fatalf("%q: got %q, want %q", step.req, got, step.want)
		}
	}

	stats := map[string]string{}
	c.send("STATS\n")
	for line := c.readLine(); line != "END"; line = c.readLine() {
		f := strings.SplitN(line, " ", 3)
		stats[f[1]] = f[2]
	}
	series := map[string]string{}
	var families []string
	for _, line := range strings.Split(scrape(t, s), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			families = append(families, f[2])
		} else if i := strings.LastIndexByte(line, ' '); i > 0 && line[0] != '#' {
			series[line[:i]] = line[i+1:]
		}
	}

	for name, want := range map[string]string{"hits": "1", "dels": "1", "cas_ops": "2",
		"txn_cas_conflicts": "1", "txn_commits": "1", "lease_grants": "1", "lease_waits": "1"} {
		if stats[name] != want {
			t.Errorf("workload left STATS %s = %q, want %s", name, stats[name], want)
		}
	}

	tabled := map[string]bool{}
	for _, d := range counterTable {
		tabled[d.stat], tabled[d.prom] = true, true
		raw, ok := stats[d.stat]
		if !ok {
			t.Errorf("STATS has no %s line", d.stat)
			continue
		}
		n, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			t.Errorf("STATS %s = %q: %v", d.stat, raw, err)
			continue
		}
		want := float64(n)
		if d.nsToSec {
			want /= 1e9
		}
		key := d.prom
		if d.label != nil {
			key += "{" + d.label[0] + "=" + strconv.Quote(d.label[1]) + "}"
		}
		got, err := strconv.ParseFloat(series[key], 64)
		if err != nil || got != want {
			t.Errorf("%s: STATS %s reads %v, /metrics %q", key, d.stat, want, series[key])
		}
	}

	shardLine := regexp.MustCompile(`^shard\d+_entries$`)
	for name := range stats {
		if !tabled[name] && !slices.Contains(statsOnlyLines, name) && !shardLine.MatchString(name) {
			t.Errorf("STATS line %s is in neither counterTable nor the STATS-only list", name)
		}
	}
	for _, fam := range families {
		if !tabled[fam] && !slices.Contains(promOnlyFamilies, fam) {
			t.Errorf("/metrics family %s is in neither counterTable nor the Prometheus-only list", fam)
		}
	}
}
