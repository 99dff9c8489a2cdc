package server

import (
	"bufio"
	"bytes"
	"errors"
	"strconv"
	"time"

	"cuckoohash/internal/obs"
	"cuckoohash/internal/txn"
)

// The wire protocol (docs/PROTOCOL.md) is memcached-style text lines. One
// request per line, one response line per request (STATS responds with
// multiple lines terminated by END), so a client can write any number of
// requests before reading — responses come back in order.

// maxKeyLen matches memcached's key limit.
const maxKeyLen = 250

type opCode uint8

const (
	opGet opCode = iota
	opSet
	opSetEx
	opDel
	opTTL
	opStats
	opQuit
	// Cluster verbs (docs/CLUSTER.md): node info, key migration to a
	// two-choice peer, and the inbound side of that bulk transfer.
	opCluster
	opMigrate
	opHandoff
	// Transaction verbs (docs/TRANSACTIONS.md): atomic read-modify-write
	// singles plus the MULTI…EXEC/DISCARD queueing envelope.
	opIncr
	opDecr
	opAdd
	opMaxUpdate
	opCAS
	opMulti
	opExec
	opDiscard
	// Observability verbs (docs/OBSERVABILITY.md): the server-measured
	// hot-key top-K.
	opHotKeys
	// Replication and lease verbs (docs/REPLICATION.md): versioned
	// reads/writes, the miss-lease anti-herd protocol, and the inbound
	// side of the asynchronous two-choice mirror stream.
	opGetV
	opSetV
	opLease
	opSetLease
	opReplSet
	opReplDel
	// opBad marks a line that failed to parse; it is never dispatched, only
	// reported in logs.
	opBad opCode = 0xff
)

// verbSpec declares one wire verb. The verbs table is the only place a
// verb's metadata lives: the codec's name lookup, opCode.String, the
// stage-latency labels, the -max-inflight gate and MULTI queueing all
// read it, so adding a verb means adding one entry here (plus its case
// in serveRequest's execution switch).
type verbSpec struct {
	name  string // wire name, upper case; matched case-insensitively
	parse func(op opCode, rest []byte, req *request) error
	// stage is the verb label its sampled spans are filed under in
	// cuckood_stage_seconds; verbs sharing a code path share a label,
	// and "" files the verb under "other".
	stage string
	// exempt verbs skip the -max-inflight gate: they never touch the
	// cache, or (QUIT) must work on an overloaded server.
	exempt bool
	// multiCtl marks the MULTI envelope (MULTI, EXEC, DISCARD): inside an
	// open transaction these execute rather than queue.
	multiCtl bool
	// queues reports whether the verb may be queued inside MULTI, as a
	// txnKind op; every other verb poisons the transaction.
	queues  bool
	txnKind txn.OpKind
}

// verbs is indexed by opCode. The codec compares names in table order,
// so GET and SET lead.
var verbs = [...]verbSpec{
	opGet:       {name: "GET", parse: parseKeyOnly, stage: "GET", queues: true, txnKind: txn.OpGet},
	opSet:       {name: "SET", parse: parseSet, stage: "SET", queues: true, txnKind: txn.OpSet},
	opSetEx:     {name: "SETEX", parse: parseSetTTL, stage: "SET", queues: true, txnKind: txn.OpSet},
	opDel:       {name: "DEL", parse: parseKeyOnly, stage: "DEL", queues: true, txnKind: txn.OpDel},
	opTTL:       {name: "TTL", parse: parseKeyOnly, stage: "TTL"},
	opStats:     {name: "STATS", parse: parseNoArgs, stage: "STATS", exempt: true},
	opQuit:      {name: "QUIT", parse: parseQuit, exempt: true},
	opCluster:   {name: "CLUSTER", parse: parseNoArgs, stage: "CLUSTER", exempt: true},
	opMigrate:   {name: "MIGRATE", parse: parseMigrate, stage: "MIGRATE"},
	opHandoff:   {name: "HANDOFF", parse: parseHandoff, stage: "HANDOFF"},
	opIncr:      {name: "INCR", parse: parseCounter, stage: "INCR", queues: true, txnKind: txn.OpIncr},
	opDecr:      {name: "DECR", parse: parseCounter, stage: "INCR", queues: true, txnKind: txn.OpIncr},
	opAdd:       {name: "ADD", parse: parseCounter, stage: "INCR", queues: true, txnKind: txn.OpIncr},
	opMaxUpdate: {name: "MAXUPDATE", parse: parseCounter, stage: "MAXUPDATE", queues: true, txnKind: txn.OpMax},
	opCAS:       {name: "CAS", parse: parseCAS, stage: "CAS", queues: true, txnKind: txn.OpCAS},
	opMulti:     {name: "MULTI", parse: parseNoArgs, exempt: true, multiCtl: true},
	opExec:      {name: "EXEC", parse: parseNoArgs, stage: "EXEC", multiCtl: true},
	opDiscard:   {name: "DISCARD", parse: parseNoArgs, exempt: true, multiCtl: true},
	opHotKeys:   {name: "HOTKEYS", parse: parseHotKeys, stage: "HOTKEYS", exempt: true},
	opGetV:      {name: "GETV", parse: parseKeyOnly, stage: "GET"},
	opSetV:      {name: "SETV", parse: parseSetTTL, stage: "SET"},
	opLease:     {name: "LEASE", parse: parseKeyOnly, stage: "LEASE"},
	opSetLease:  {name: "SETL", parse: parseSetLease, stage: "LEASE"},
	opReplSet:   {name: "REPLSET", parse: parseReplSet, stage: "REPL"},
	opReplDel:   {name: "REPLDEL", parse: parseReplDel, stage: "REPL"},
}

// String names the op for structured logs.
func (o opCode) String() string {
	if int(o) < len(verbs) {
		return verbs[o].name
	}
	return "INVALID"
}

// request is one parsed protocol line. key and val alias the connection's
// read buffer and are only valid until the next read; handlers that store
// them must copy (conn.go does, via string conversions).
type request struct {
	op  opCode
	key []byte
	ttl time.Duration
	val []byte
	// payload is the HANDOFF body length; the bytes follow the request
	// line on the wire and are consumed by the handler.
	payload uint64
	// mig carries the MIGRATE arguments. Unlike key/val it is fully
	// copied out of the read buffer — migrations are rare admin
	// operations, so the allocations are off the hot path.
	mig *migrateArgs
	// delta is the INCR/DECR/ADD operand or the MAXUPDATE target.
	delta int64
	// old is the CAS expected value; like key/val it aliases the read
	// buffer. val holds the CAS replacement.
	old []byte
	// trace is the wire trace ID from an optional "TRACE <id>" prefix
	// (docs/OBSERVABILITY.md); nil when the request is untraced. Like
	// key/val it aliases the read buffer.
	trace []byte
	// ver carries REPLSET/REPLDEL's version word and SETL's lease token
	// (both unsigned 64-bit words); delta doubles as REPLSET's absolute
	// expireAt (unix nanoseconds, 0 = no expiry).
	ver uint64
}

// migrateArgs are the parsed operands of a MIGRATE line:
//
//	MIGRATE <mode> <dest> <self> <seed> <max> <ring-csv>
//
// mode "home" moves keys that do not belong on this node (self is not
// one of their two candidates under the ring) — the repair pass after a
// membership change and the whole of a drain; mode "shed" moves
// correctly-placed keys to their other candidate — the load-balancing
// kick-out. dest is where keys go, self is this node's ring name, seed
// fixes the placement hash, max bounds moved keys (0 = unlimited), and
// ring-csv is the comma-separated membership the candidates are computed
// against.
type migrateArgs struct {
	mode string
	dest string
	self string
	seed uint64
	max  int
	ring string
}

var (
	errEmpty      = errors.New("empty command")
	errUnknownCmd = errors.New("unknown command")
	errBadArgs    = errors.New("wrong number of arguments")
	errKeyTooLong = errors.New("key exceeds 250 bytes")
	errBadTTL     = errors.New("ttl must be a positive integer (milliseconds)")

	errBadPayload = errors.New("handoff payload must be 1.." + handoffMaxStr + " bytes")
	errBadMigrate = errors.New("migrate wants: MIGRATE <home|shed> <dest> <self> <seed> <max> <ring-csv>")

	errBadDelta = errors.New("delta must be a signed 64-bit integer")

	errBadTrace   = errors.New("trace wants: TRACE <id (1..64 bytes)> <command...>")
	errBadHotKeys = errors.New("hotkeys wants: HOTKEYS [count (1.." + hotKeysMaxStr + ")]")

	errBadVer   = errors.New("version must be an unsigned 64-bit integer")
	errBadToken = errors.New("lease token must be 1..16 hex digits")
)

// nextToken splits the first space-separated token off line.
func nextToken(line []byte) (tok, rest []byte) {
	if i := bytes.IndexByte(line, ' '); i >= 0 {
		return line[:i], line[i+1:]
	}
	return line, nil
}

// parseRequest parses one protocol line (already stripped of \r\n) into
// *req, which the caller owns: the request is filled in place rather
// than returned by value. GET and SET parse without copying — key and
// val alias the line; numeric-operand verbs copy their token for
// strconv. On error *req is left as it was: every parser writes it
// only once its operands have validated.
//
//cuckoo:hotpath the wire decoder; GET/SET lines parse allocation-free
func parseRequest(line []byte, req *request) error {
	return parseRequest1(line, true, req)
}

// parseRequest1 is parseRequest with the TRACE prefix gated: the prefix
// is legal exactly once, at the start of the line.
func parseRequest1(line []byte, allowTrace bool, req *request) error {
	cmd, rest := nextToken(line)
	if len(cmd) == 0 {
		return errEmpty
	}
	if asciiEqualFold(cmd, "TRACE") {
		if !allowTrace {
			return errBadTrace
		}
		id, rest2 := nextToken(rest)
		if len(id) == 0 || len(id) > maxTraceIDLen || rest2 == nil {
			return errBadTrace
		}
		if err := parseRequest1(rest2, false, req); err != nil {
			return err
		}
		req.trace = id
		return nil
	}
	for i := range verbs {
		if asciiEqualFold(cmd, verbs[i].name) {
			return verbs[i].parse(opCode(i), rest, req)
		}
	}
	return errUnknownCmd
}

// parseNoArgs parses the verbs that take no operands.
func parseNoArgs(op opCode, rest []byte, req *request) error {
	if len(rest) != 0 {
		return errBadArgs
	}
	*req = request{op: op}
	return nil
}

// parseQuit accepts QUIT with anything after it: a client on its way
// out is never refused.
func parseQuit(op opCode, _ []byte, req *request) error {
	*req = request{op: op}
	return nil
}

func parseSet(op opCode, rest []byte, req *request) error {
	key, val := nextToken(rest)
	if len(key) == 0 || val == nil {
		return errBadArgs
	}
	if len(key) > maxKeyLen {
		return errKeyTooLong
	}
	*req = request{op: op, key: key, val: val}
	return nil
}

// parseSetTTL parses SETEX and SETV, both <key> <ttl_ms> <val>. SETEX
// needs a positive TTL; SETV (SET returning the write's version word)
// also takes 0 for no expiry, so one verb covers both SET and SETEX
// shapes for version-aware clients.
func parseSetTTL(op opCode, rest []byte, req *request) error {
	key, rest2 := nextToken(rest)
	ttlTok, val := nextToken(rest2)
	if len(key) == 0 || len(ttlTok) == 0 || val == nil {
		return errBadArgs
	}
	if len(key) > maxKeyLen {
		return errKeyTooLong
	}
	//lint:allow cuckoovet:allocfree the TTL token is copied for strconv; SETEX/SETV pay one bounded copy, GET/SET none
	ms, err := strconv.ParseUint(string(ttlTok), 10, 32)
	if err != nil || (ms == 0 && op == opSetEx) {
		return errBadTTL
	}
	*req = request{op: op, key: key, ttl: time.Duration(ms) * time.Millisecond, val: val}
	return nil
}

// parseSetLease parses SETL <key> <token> <ttl_ms> <val>: the lease
// winner's fill. token is the hex word a LEASE grant handed out; ttl 0
// means no expiry.
func parseSetLease(op opCode, rest []byte, req *request) error {
	key, rest2 := nextToken(rest)
	tokTok, rest3 := nextToken(rest2)
	ttlTok, val := nextToken(rest3)
	if len(key) == 0 || len(tokTok) == 0 || len(ttlTok) == 0 || val == nil {
		return errBadArgs
	}
	if len(key) > maxKeyLen {
		return errKeyTooLong
	}
	if len(tokTok) > 16 {
		return errBadToken
	}
	//lint:allow cuckoovet:allocfree lease fills happen once per miss storm; the token copy is bounded to 16 bytes
	token, err := strconv.ParseUint(string(tokTok), 16, 64)
	if err != nil || token == 0 {
		return errBadToken
	}
	//lint:allow cuckoovet:allocfree the TTL token is copied for strconv, same as SETEX
	ms, err := strconv.ParseUint(string(ttlTok), 10, 32)
	if err != nil {
		return errBadTTL
	}
	*req = request{op: op, key: key, ver: token, ttl: time.Duration(ms) * time.Millisecond, val: val}
	return nil
}

// parseReplSet parses REPLSET <key> <ver> <expireAtNs> <val>, the
// inbound mirror write. ver is the origin's version word; expireAt is
// absolute unix nanoseconds (0 = no expiry) so TTLs survive the hop
// without clock math.
func parseReplSet(op opCode, rest []byte, req *request) error {
	key, rest2 := nextToken(rest)
	verTok, rest3 := nextToken(rest2)
	expTok, val := nextToken(rest3)
	if len(key) == 0 || len(verTok) == 0 || len(expTok) == 0 || val == nil {
		return errBadArgs
	}
	if len(key) > maxKeyLen {
		return errKeyTooLong
	}
	//lint:allow cuckoovet:allocfree mirror traffic copies its two numeric tokens for strconv; bounded to 20 bytes each
	ver, err := strconv.ParseUint(string(verTok), 10, 64)
	if err != nil || ver == 0 {
		return errBadVer
	}
	//lint:allow cuckoovet:allocfree see above
	exp, err := strconv.ParseInt(string(expTok), 10, 64)
	if err != nil || exp < 0 {
		return errBadDelta
	}
	*req = request{op: op, key: key, ver: ver, delta: exp, val: val}
	return nil
}

// parseReplDel parses REPLDEL <key> <ver>, the mirrored tombstone.
func parseReplDel(op opCode, rest []byte, req *request) error {
	key, rest2 := nextToken(rest)
	verTok, extra := nextToken(rest2)
	if len(key) == 0 || len(verTok) == 0 || extra != nil {
		return errBadArgs
	}
	if len(key) > maxKeyLen {
		return errKeyTooLong
	}
	//lint:allow cuckoovet:allocfree mirror traffic copies its version token for strconv; bounded to 20 bytes
	ver, err := strconv.ParseUint(string(verTok), 10, 64)
	if err != nil || ver == 0 {
		return errBadVer
	}
	*req = request{op: op, key: key, ver: ver}
	return nil
}

// maxTraceIDLen mirrors obs.MaxTraceIDLen without importing obs into
// the codec; a compile-time assertion in conn.go keeps them equal.
const maxTraceIDLen = 64

// hotKeysMax bounds the HOTKEYS count operand: the server tracks only a
// few dozen keys per sketch, so asking for more is a client bug.
const (
	hotKeysMax    = 128
	hotKeysMaxStr = "128"
)

// parseHotKeys parses HOTKEYS [count]; count defaults to 10 and rides
// in req.delta.
func parseHotKeys(op opCode, rest []byte, req *request) error {
	n := int64(10)
	tok, extra := nextToken(rest)
	if len(tok) != 0 {
		if extra != nil {
			return errBadHotKeys
		}
		//lint:allow cuckoovet:allocfree HOTKEYS is an operator verb; its count token is copied for strconv
		v, err := strconv.ParseInt(string(tok), 10, 64)
		if err != nil || v < 1 || v > hotKeysMax {
			return errBadHotKeys
		}
		n = v
	}
	*req = request{op: op, delta: n}
	return nil
}

// parseCounter parses the arithmetic verbs:
//
//	INCR <key> [delta]   DECR <key> [delta]   (delta defaults to 1)
//	ADD <key> <delta>    MAXUPDATE <key> <n>  (operand required)
//
// delta is a signed 64-bit integer; DECR negates it at parse time so the
// dispatch layer sees a single add-delta operation.
func parseCounter(op opCode, rest []byte, req *request) error {
	key, rest2 := nextToken(rest)
	if len(key) == 0 {
		return errBadArgs
	}
	if len(key) > maxKeyLen {
		return errKeyTooLong
	}
	delta := int64(1)
	tok, extra := nextToken(rest2)
	if len(tok) != 0 {
		if extra != nil {
			return errBadArgs
		}
		//lint:allow cuckoovet:allocfree the delta token is copied for strconv; counter verbs pay one bounded copy, GET/SET none
		d, err := strconv.ParseInt(string(tok), 10, 64)
		if err != nil {
			return errBadDelta
		}
		delta = d
	} else if op == opAdd || op == opMaxUpdate {
		return errBadArgs
	}
	if op == opDecr {
		delta = -delta
	}
	*req = request{op: op, key: key, delta: delta}
	return nil
}

// parseCAS parses CAS <key> <old> <new>. old is a single token (a CAS
// against a value containing spaces is not expressible in this text
// protocol); new is the rest of the line and may contain spaces.
func parseCAS(op opCode, rest []byte, req *request) error {
	key, rest2 := nextToken(rest)
	old, newVal := nextToken(rest2)
	if len(key) == 0 || len(old) == 0 || newVal == nil {
		return errBadArgs
	}
	if len(key) > maxKeyLen {
		return errKeyTooLong
	}
	*req = request{op: op, key: key, old: old, val: newVal}
	return nil
}

// handoffMaxBytes bounds one HANDOFF bulk payload. A length past it is a
// protocol violation that closes the connection: the payload bytes are
// already in flight behind the request line, so the stream cannot be
// resynchronized by skipping the line alone.
const (
	handoffMaxBytes = 64 << 20
	handoffMaxStr   = "67108864"
)

func parseHandoff(op opCode, rest []byte, req *request) error {
	tok, extra := nextToken(rest)
	if len(tok) == 0 || extra != nil {
		return errBadArgs
	}
	//lint:allow cuckoovet:allocfree HANDOFF is a rare bulk-transfer verb; its length token is copied for strconv
	n, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil || n == 0 || n > handoffMaxBytes {
		return errBadPayload
	}
	*req = request{op: op, payload: n}
	return nil
}

//cuckoo:coldpath MIGRATE is a rare admin verb; it copies every operand out of the read buffer by design
func parseMigrate(op opCode, rest []byte, req *request) error {
	fields := bytes.Fields(rest)
	if len(fields) != 6 {
		return errBadMigrate
	}
	mode := string(bytes.ToLower(fields[0]))
	if mode != "home" && mode != "shed" {
		return errBadMigrate
	}
	seed, err := strconv.ParseUint(string(fields[3]), 10, 64)
	if err != nil {
		return errBadMigrate
	}
	max, err := strconv.ParseUint(string(fields[4]), 10, 32)
	if err != nil {
		return errBadMigrate
	}
	*req = request{op: op, mig: &migrateArgs{
		mode: mode,
		dest: string(fields[1]),
		self: string(fields[2]),
		seed: seed,
		max:  int(max),
		ring: string(fields[5]),
	}}
	return nil
}

func parseKeyOnly(op opCode, rest []byte, req *request) error {
	key, extra := nextToken(rest)
	if len(key) == 0 || extra != nil {
		return errBadArgs
	}
	if len(key) > maxKeyLen {
		return errKeyTooLong
	}
	*req = request{op: op, key: key}
	return nil
}

// asciiEqualFold reports whether b equals the upper-case ASCII literal s
// case-insensitively, without allocating.
func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

// Response writers. Each writes into the connection's buffered writer;
// nothing reaches the socket until the batch flush.

func writeOK(w *bufio.Writer) {
	w.WriteString("OK\n")
}

func writeMiss(w *bufio.Writer) {
	w.WriteString("MISS\n")
}

// writeValue renders a GET hit; with writeMiss it is the whole of the
// read path's reply surface.
//
//cuckoo:hotpath the GET reply writer
func writeValue(w *bufio.Writer, val string) {
	w.WriteString("VALUE ")
	w.WriteString(val)
	w.WriteByte('\n')
}

func writeTTL(w *bufio.Writer, d time.Duration, persistent bool) {
	w.WriteString("TTL ")
	if persistent {
		w.WriteString("-1")
	} else {
		ms := d.Milliseconds()
		if ms < 1 {
			ms = 1 // live but sub-millisecond: never report 0 for a hit
		}
		w.WriteString(strconv.FormatInt(ms, 10))
	}
	w.WriteByte('\n')
}

func writeErr(w *bufio.Writer, err error) {
	w.WriteString("ERR ")
	w.WriteString(err.Error())
	w.WriteByte('\n')
}

func writeStats(w *bufio.Writer, lines []Stat) {
	for _, s := range lines {
		w.WriteString("STAT ")
		w.WriteString(s.Name)
		w.WriteByte(' ')
		w.WriteString(s.Value)
		w.WriteByte('\n')
	}
	w.WriteString("END\n")
}

func writeCluster(w *bufio.Writer, lines []Stat) {
	for _, s := range lines {
		w.WriteString("CLUSTER ")
		w.WriteString(s.Name)
		w.WriteByte(' ')
		w.WriteString(s.Value)
		w.WriteByte('\n')
	}
	w.WriteString("END\n")
}

func writeConflict(w *bufio.Writer) {
	w.WriteString("CONFLICT\n")
}

func writeQueued(w *bufio.Writer) {
	w.WriteString("QUEUED\n")
}

// writeExecResults renders an EXEC reply: a header naming the result
// count, then one reply line per queued op in queue order.
func writeExecResults(w *bufio.Writer, results []txn.Result) {
	w.WriteString("EXEC ")
	w.WriteString(strconv.Itoa(len(results)))
	w.WriteByte('\n')
	for i := range results {
		switch results[i].Status {
		case txn.StatusOK:
			writeOK(w)
		case txn.StatusValue:
			writeValue(w, results[i].Value)
		case txn.StatusMiss:
			writeMiss(w)
		case txn.StatusConflict:
			writeConflict(w)
		default:
			w.WriteString("ERR ")
			w.WriteString(results[i].Err)
			w.WriteByte('\n')
		}
	}
}

func writeMigrated(w *bufio.Writer, count int) {
	w.WriteString("MIGRATED ")
	w.WriteString(strconv.Itoa(count))
	w.WriteByte('\n')
}

func writeHandoff(w *bufio.Writer, loaded int) {
	w.WriteString("HANDOFF ")
	w.WriteString(strconv.Itoa(loaded))
	w.WriteByte('\n')
}

// writeValueV renders a GETV hit: "VALUEV <ver> <val>". The version
// word precedes the value because values may contain spaces — parsers
// split twice and take the rest, like HOTKEY lines.
//
//cuckoo:hotpath the versioned GET reply writer
func writeValueV(w *bufio.Writer, ver uint64, val string) {
	w.WriteString("VALUEV ")
	var num [20]byte
	//lint:allow cuckoovet:allocfree AppendUint into the stack scratch never allocates
	w.Write(strconv.AppendUint(num[:0], ver, 10))
	w.WriteByte(' ')
	w.WriteString(val)
	w.WriteByte('\n')
}

// writeVer acknowledges a versioned write (SETV, accepted SETL).
func writeVer(w *bufio.Writer, ver uint64) {
	w.WriteString("VER ")
	var num [20]byte
	w.Write(strconv.AppendUint(num[:0], ver, 10))
	w.WriteByte('\n')
}

// writeLease renders a granted fill token: "LEASE <token-hex> <ttl_ms>".
func writeLease(w *bufio.Writer, token uint64, ttlMS int64) {
	w.WriteString("LEASE ")
	var num [20]byte
	w.Write(strconv.AppendUint(num[:0], token, 16))
	w.WriteByte(' ')
	w.Write(strconv.AppendInt(num[:0], ttlMS, 10))
	w.WriteByte('\n')
}

// writeWait tells a non-winning client how long to back off before
// retrying its LEASE: "WAIT <ms>".
func writeWait(w *bufio.Writer, ms int64) {
	w.WriteString("WAIT ")
	var num [20]byte
	w.Write(strconv.AppendInt(num[:0], ms, 10))
	w.WriteByte('\n')
}

// writeStaleValue serves an expired-but-present copy while a fill is in
// flight: "STALE <ver> <val>".
func writeStaleValue(w *bufio.Writer, ver uint64, val string) {
	w.WriteString("STALE ")
	var num [20]byte
	w.Write(strconv.AppendUint(num[:0], ver, 10))
	w.WriteByte(' ')
	w.WriteString(val)
	w.WriteByte('\n')
}

// writeStale is the REPLSET/REPLDEL "your write lost" reply: the local
// copy was newer, nothing was applied. Distinct from STALE-with-value so
// mirror senders can treat it as success without parsing further.
func writeStale(w *bufio.Writer) {
	w.WriteString("STALE\n")
}

// writeHotKeys renders a HOTKEYS reply: one "HOTKEY <count> <key>" line
// per tracked key, hottest first, then END. count precedes key because
// keys may contain spaces-free tokens of any content while count is
// always a single integer — parsers split twice and take the rest.
func writeHotKeys(w *bufio.Writer, items []obs.TopKItem) {
	for i := range items {
		w.WriteString("HOTKEY ")
		w.WriteString(strconv.FormatUint(items[i].Count, 10))
		w.WriteByte(' ')
		w.WriteString(items[i].Key)
		w.WriteByte('\n')
	}
	w.WriteString("END\n")
}
