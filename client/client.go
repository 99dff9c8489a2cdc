// Package client is a Go client for the cuckood cache protocol
// (docs/PROTOCOL.md). Conn is a single pipelined connection: Queue* calls
// buffer requests and Flush sends them in one write and reads all the
// responses back, amortizing syscalls exactly as the server's batch loop
// does on its side. Pool keeps a set of Conns for concurrent callers and
// offers one-shot convenience methods.
//
// The pool is also the client's fault-tolerance layer (docs/ROBUSTNESS.md):
// dial and per-operation deadlines, health-checked connection checkout,
// exponential backoff with full jitter and a retry budget for idempotent
// operations, and a per-address circuit breaker that fast-fails while the
// server is unreachable. A Conn that suffers a transport error mid-pipeline
// is marked broken and refuses further use — replies could otherwise be
// attributed to the wrong request — so it is discarded, never pooled.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cuckoohash/internal/obs"
)

// ErrClosed is returned when using a closed Conn or Pool.
var ErrClosed = errors.New("client: closed")

// ErrBrokenConn is wrapped into every error returned by a Conn after a
// transport failure left its pipeline in an undefined state. The first
// failure is sticky: all subsequent operations on the Conn fail with the
// same error instead of reading desynchronized replies.
var ErrBrokenConn = errors.New("client: connection broken")

// ServerError is an ERR response from the daemon.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "server: " + e.Msg }

// Reply is the response to one queued request.
type Reply struct {
	// Found is true for GET/TTL hits and DEL of a present key, and for
	// every successful SET.
	Found bool
	// Value is the GET value (hits only).
	Value string
	// TTL is the remaining lifetime for TTL hits; -1 means no expiry.
	TTL time.Duration
	// Conflict is true when a CAS was rejected because the stored value
	// differed from the expected one (reply CONFLICT).
	Conflict bool
	// Ver is the entry's replication version word, carried by VALUEV
	// (GETV hits), VER (SETV/SETL acks), and STALE replies. Clients use
	// it as a monotonic floor: a replica copy with a lower version than
	// one already observed for the key must not be trusted.
	Ver uint64
	// Lease is the fill token from a granted LEASE (0 = not granted);
	// LeaseTTL is how long the server will honor it.
	Lease    uint64
	LeaseTTL time.Duration
	// Wait is the server's back-off hint after a lost lease race.
	Wait time.Duration
	// Stale marks a STALE reply: Value/Ver are an expired copy the
	// server is willing to serve while a fill is in flight.
	Stale bool
	// Err is a per-request server error (*ServerError); transport errors
	// are returned by Flush itself instead.
	Err error
}

// Conn is one pipelined protocol connection. It is not safe for
// concurrent use; use a Pool to share connections between goroutines.
type Conn struct {
	nc        net.Conn
	r         *bufio.Reader
	w         *bufio.Writer
	pending   int // queued requests whose replies Flush has yet to read
	replies   []Reply
	closed    bool
	broken    error         // sticky transport failure; nil while healthy
	ioTimeout time.Duration // per-Flush deadline; 0 = none
	trace     string        // wire trace ID prefixed to queued requests; "" = untraced
}

// Dial connects to a cuckood server with no deadlines configured.
func Dial(addr string) (*Conn, error) {
	return DialTimeout(addr, 0, 0)
}

// DialTimeout connects to a cuckood server, bounding the dial by
// dialTimeout and every subsequent Flush (write plus each reply read) by
// ioTimeout. Zero disables the respective deadline. An operation that
// trips the deadline fails the Conn permanently, exactly like any other
// transport error.
func DialTimeout(addr string, dialTimeout, ioTimeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	return newConn(nc, ioTimeout), nil
}

func newConn(nc net.Conn, ioTimeout time.Duration) *Conn {
	return &Conn{
		nc:        nc,
		r:         bufio.NewReaderSize(nc, 64<<10),
		w:         bufio.NewWriterSize(nc, 64<<10),
		ioTimeout: ioTimeout,
	}
}

// SetIOTimeout sets the per-Flush deadline (0 disables it).
func (c *Conn) SetIOTimeout(d time.Duration) { c.ioTimeout = d }

// Err returns the Conn's sticky transport error, or nil while healthy.
func (c *Conn) Err() error { return c.broken }

// fail records the first transport error, makes it sticky, and returns it.
// The pipeline state is undefined after a mid-flush failure — some requests
// may have executed, some replies may be half-read — so the only safe
// behavior is to refuse every further operation.
func (c *Conn) fail(err error) error {
	if c.broken == nil {
		c.broken = fmt.Errorf("%w: %w", ErrBrokenConn, err)
		c.pending = 0
	}
	return c.broken
}

// Close closes the connection.
func (c *Conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.nc.Close()
}

// maxKeyLen is the protocol's key length limit.
const maxKeyLen = 250

// request is one protocol request line. Its operands are written in
// this order, each only when ops carries its flag:
//
//	[TRACE <id> ]<verb>[ <key>][ <token>][ <num>][ <old>][ <val>]\n
type request struct {
	verb  string
	ops   uint8
	key   string
	token uint64 // SETL's lease token, written in hex
	num   int64  // TTL in ms, counter delta or operand, HOTKEYS count
	old   string // CAS's expected value
	val   string // the rest of the line; may contain spaces
}

// Operand flags of request.ops, each with the rule encode checks.
const (
	withKey   = 1 << iota // one token of at most maxKeyLen bytes
	withToken             // non-zero
	withNum               // any integer
	withOld               // one token
	withVal               // no CR or LF
)

// keyReq is a request carrying only a key (GET, DEL, TTL, GETV, LEASE).
func keyReq(verb, key string) request {
	return request{verb: verb, ops: withKey, key: key}
}

// numReq is a key plus one integer operand (INCR, MAXUPDATE).
func numReq(verb, key string, n int64) request {
	return request{verb: verb, ops: withKey | withNum, key: key, num: n}
}

// setReq is a SET, or a SETEX when ttl is positive.
func setReq(key, val string, ttl time.Duration) request {
	if ttl > 0 {
		return request{verb: "SETEX", ops: withKey | withNum | withVal, key: key, num: ttlMillis(ttl), val: val}
	}
	return request{verb: "SET", ops: withKey | withVal, key: key, val: val}
}

// casReq is a CAS of key from old to newVal.
func casReq(key, old, newVal string) request {
	return request{verb: "CAS", ops: withKey | withOld | withVal, key: key, old: old, val: newVal}
}

// ttlMillis rounds a positive ttl up to whole milliseconds; 0 means no
// expiry.
func ttlMillis(ttl time.Duration) int64 {
	if ttl <= 0 {
		return 0
	}
	return int64((ttl + time.Millisecond - 1) / time.Millisecond)
}

// encode validates r and writes it to w as one request line, prefixed
// with "TRACE <id> " when trace is set. An invalid request writes
// nothing. Every line the client sends is formatted here.
//
//cuckoo:hotpath GET and SET with no TTL are the wire benchmarks' encode path
func encode(w *bufio.Writer, trace string, r *request) error {
	var bad uint8
	switch {
	case r.ops&withKey != 0 && (len(r.key) > maxKeyLen || !oneToken(r.key)):
		bad = withKey
	case r.ops&withToken != 0 && r.token == 0:
		bad = withToken
	case r.ops&withOld != 0 && !oneToken(r.old):
		bad = withOld
	case r.ops&withVal != 0 && hasNewline(r.val):
		bad = withVal
	}
	if bad != 0 {
		return r.invalid(bad)
	}
	if trace != "" {
		w.WriteString("TRACE ")
		w.WriteString(trace)
		w.WriteByte(' ')
	}
	w.WriteString(r.verb)
	if r.ops&withKey != 0 {
		w.WriteByte(' ')
		w.WriteString(r.key)
	}
	if r.ops&(withToken|withNum) != 0 {
		r.writeNums(w)
	}
	if r.ops&withOld != 0 {
		w.WriteByte(' ')
		w.WriteString(r.old)
	}
	if r.ops&withVal != 0 {
		w.WriteByte(' ')
		w.WriteString(r.val)
	}
	w.WriteByte('\n')
	return nil
}

// writeNums writes r's lease token (hex) and integer operand (decimal).
//
//cuckoo:coldpath strconv formats outside the analyzed module; GET and SET carry no number
func (r *request) writeNums(w *bufio.Writer) {
	if r.ops&withToken != 0 {
		w.WriteByte(' ')
		w.WriteString(strconv.FormatUint(r.token, 16))
	}
	if r.ops&withNum != 0 {
		w.WriteByte(' ')
		w.WriteString(strconv.FormatInt(r.num, 10))
	}
}

// invalid builds the error for r's first invalid operand, bad.
//
//cuckoo:coldpath a rejected request builds one error and sends nothing
func (r *request) invalid(bad uint8) error {
	switch bad {
	case withKey:
		return fmt.Errorf("client: invalid key %q", r.key)
	case withToken:
		return fmt.Errorf("client: zero lease token for %q", r.key)
	case withOld:
		return fmt.Errorf("client: CAS expected value %q must be one token", r.old)
	}
	return fmt.Errorf("client: value for %q contains newline", r.key)
}

// oneToken reports whether s is a non-empty protocol token: no space, CR
// or LF.
func oneToken(s string) bool {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b <= ' ' && (b == ' ' || b == '\r' || b == '\n') {
			return false
		}
	}
	return s != ""
}

// hasNewline reports whether s contains a CR or LF.
func hasNewline(s string) bool {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b <= '\r' && (b == '\r' || b == '\n') {
			return true
		}
	}
	return false
}

// queue buffers one request on the pipeline.
func (c *Conn) queue(r request) error {
	if c.broken != nil {
		return c.broken
	}
	if err := encode(c.w, c.trace, &r); err != nil {
		return err
	}
	c.pending++
	return nil
}

// QueueGet buffers a GET request.
func (c *Conn) QueueGet(key string) error {
	return c.queue(keyReq("GET", key))
}

// QueueSet buffers a SET (ttl == 0) or SETEX request. The value must not
// contain newlines; ttl is rounded up to a whole millisecond.
func (c *Conn) QueueSet(key, val string, ttl time.Duration) error {
	return c.queue(setReq(key, val, ttl))
}

// QueueDel buffers a DEL request.
func (c *Conn) QueueDel(key string) error {
	return c.queue(keyReq("DEL", key))
}

// QueueGetV buffers a GETV request: a GET whose hit reply carries the
// entry's replication version word.
func (c *Conn) QueueGetV(key string) error {
	return c.queue(keyReq("GETV", key))
}

// QueueSetV buffers a SETV request: a SET acknowledged with the write's
// version word (ttl 0 = no expiry; rounded up to a whole millisecond).
func (c *Conn) QueueSetV(key, val string, ttl time.Duration) error {
	return c.queue(request{verb: "SETV", ops: withKey | withNum | withVal, key: key, num: ttlMillis(ttl), val: val})
}

// QueueLease buffers a LEASE request: a GET that, on a miss, enters the
// server's fill-lease protocol instead of returning MISS. The reply is
// a VALUEV hit, a granted LEASE token, a STALE copy, or a WAIT hint.
func (c *Conn) QueueLease(key string) error {
	return c.queue(keyReq("LEASE", key))
}

// QueueSetLease buffers a SETL request: the lease winner's fill,
// publishing val under the token a LEASE grant handed out. A MISS reply
// means the fill lost (the lease expired or a newer write invalidated
// it) and nothing was stored.
func (c *Conn) QueueSetLease(key string, token uint64, val string, ttl time.Duration) error {
	return c.queue(request{verb: "SETL", ops: withKey | withToken | withNum | withVal,
		key: key, token: token, num: ttlMillis(ttl), val: val})
}

// QueueTTL buffers a TTL query.
func (c *Conn) QueueTTL(key string) error {
	return c.queue(keyReq("TTL", key))
}

// Pending returns the number of queued, unflushed requests.
func (c *Conn) Pending() int { return c.pending }

// Flush sends every queued request in one write and reads their replies
// in order. The returned slice is reused by the next Flush. A non-nil
// error is a transport failure; per-request failures are Reply.Err. After
// a transport failure the Conn is broken: the stream cannot be
// resynchronized, so every later call returns the same sticky error.
func (c *Conn) Flush() ([]Reply, error) {
	if c.closed {
		return nil, ErrClosed
	}
	if c.broken != nil {
		return nil, c.broken
	}
	if c.pending == 0 {
		return nil, nil
	}
	if c.ioTimeout > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.ioTimeout))
	}
	if err := c.w.Flush(); err != nil {
		return nil, c.fail(err)
	}
	c.replies = c.replies[:0]
	for i := 0; i < c.pending; i++ {
		if c.ioTimeout > 0 {
			c.nc.SetReadDeadline(time.Now().Add(c.ioTimeout))
		}
		rep, err := c.readReply()
		if err != nil {
			return nil, err
		}
		c.replies = append(c.replies, rep)
	}
	c.pending = 0
	if c.ioTimeout > 0 {
		c.nc.SetDeadline(time.Time{})
	}
	return c.replies, nil
}

// readReply reads and parses one request's reply. A reply that does
// not parse breaks the Conn, like a failed read.
func (c *Conn) readReply() (Reply, error) {
	line, err := c.readRawLine()
	if err != nil {
		return Reply{}, err
	}
	var rep Reply
	var ms int64
	switch {
	case line == "OK":
		rep.Found = true
	case line == "MISS":
	case line == "CONFLICT":
		rep.Conflict = true
	case strings.HasPrefix(line, "VALUE "):
		rep = Reply{Found: true, Value: line[len("VALUE "):]}
	case strings.HasPrefix(line, "TTL "):
		ms, err = strconv.ParseInt(line[len("TTL "):], 10, 64)
		rep = Reply{Found: true, TTL: time.Duration(ms) * time.Millisecond}
		if ms < 0 {
			rep.TTL = -1
		}
	case strings.HasPrefix(line, "VALUEV "):
		rep.Found = true
		rep.Ver, rep.Value, err = cutUint(line[len("VALUEV "):], 10)
	case strings.HasPrefix(line, "VER "):
		rep.Found = true
		rep.Ver, err = strconv.ParseUint(line[len("VER "):], 10, 64)
	case strings.HasPrefix(line, "LEASE "):
		var msTok string
		if rep.Lease, msTok, err = cutUint(line[len("LEASE "):], 16); err == nil && rep.Lease != 0 {
			ms, err = strconv.ParseInt(msTok, 10, 64)
			rep.LeaseTTL = time.Duration(ms) * time.Millisecond
		} else {
			err = errors.New("no lease token") // token 0 is never granted
		}
	case strings.HasPrefix(line, "WAIT "):
		ms, err = strconv.ParseInt(line[len("WAIT "):], 10, 64)
		rep.Wait = time.Duration(ms) * time.Millisecond
	case strings.HasPrefix(line, "STALE "):
		rep.Stale = true
		rep.Ver, rep.Value, err = cutUint(line[len("STALE "):], 10)
	case line == "STALE":
		// The bare mirror-rejection form (REPLSET/REPLDEL); ordinary
		// clients never see it, but parsing it keeps the codec total.
		rep.Stale = true
	case strings.HasPrefix(line, "ERR "):
		rep.Err = &ServerError{Msg: line[len("ERR "):]}
	default:
		return Reply{}, c.fail(fmt.Errorf("client: unexpected reply %q", line))
	}
	if err != nil {
		return Reply{}, c.fail(fmt.Errorf("client: malformed reply %q", line))
	}
	return rep, nil
}

// cutUint splits "<uint> <rest>" where rest may contain spaces, parsing
// the leading integer in the given base.
func cutUint(s string, base int) (uint64, string, error) {
	numTok, rest, _ := strings.Cut(s, " ")
	n, err := strconv.ParseUint(numTok, base, 64)
	return n, rest, err
}

// readRawLine reads one reply line without interpreting it. A failed
// read breaks the Conn.
func (c *Conn) readRawLine() (string, error) {
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", c.fail(err)
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// roundTrip flushes the single request the caller just queued and
// returns its reply; queueErr is the error of the Queue* call that
// buffered it. A server ERR reply is returned as the error as well as in
// the Reply.
func (c *Conn) roundTrip(queueErr error) (Reply, error) {
	if queueErr != nil {
		return Reply{}, queueErr
	}
	reps, err := c.Flush()
	if err != nil {
		return Reply{}, err
	}
	if len(reps) != 1 {
		return Reply{}, fmt.Errorf("client: expected 1 reply, got %d", len(reps))
	}
	return reps[0], reps[0].Err
}

// Get fetches key.
func (c *Conn) Get(key string) (string, bool, error) {
	rep, err := c.roundTrip(c.QueueGet(key))
	return rep.Value, rep.Found, err
}

// Set stores key=val with an optional TTL (0 = no expiry).
func (c *Conn) Set(key, val string, ttl time.Duration) error {
	_, err := c.roundTrip(c.QueueSet(key, val, ttl))
	return err
}

// Del removes key, reporting whether it was present.
func (c *Conn) Del(key string) (bool, error) {
	rep, err := c.roundTrip(c.QueueDel(key))
	return rep.Found, err
}

// GetV fetches key with its replication version word.
func (c *Conn) GetV(key string) (val string, ver uint64, found bool, err error) {
	rep, err := c.roundTrip(c.QueueGetV(key))
	return rep.Value, rep.Ver, rep.Found, err
}

// SetV stores key=val (ttl 0 = no expiry) and returns the write's
// version word (0 if the entry was evicted before the acknowledging
// read-back — harmless, the client just learns nothing).
func (c *Conn) SetV(key, val string, ttl time.Duration) (uint64, error) {
	rep, err := c.roundTrip(c.QueueSetV(key, val, ttl))
	return rep.Ver, err
}

// Lease runs one round of the miss-lease protocol for key. Inspect the
// Reply: Found means a live hit (Value/Ver are set), Lease != 0 means
// this caller won the fill and must publish via SetLease, Stale means
// the server offered an expired copy, and otherwise Wait is the retry
// hint. Pool.GetOrFill drives the whole loop.
func (c *Conn) Lease(key string) (Reply, error) {
	return c.roundTrip(c.QueueLease(key))
}

// SetLease publishes a lease fill. filled reports whether the server
// accepted it; a false return means the token lost to a newer write or
// expiry and nothing was stored.
func (c *Conn) SetLease(key string, token uint64, val string, ttl time.Duration) (ver uint64, filled bool, err error) {
	rep, err := c.roundTrip(c.QueueSetLease(key, token, val, ttl))
	return rep.Ver, rep.Found, err
}

// TTL returns key's remaining lifetime (-1 if persistent).
func (c *Conn) TTL(key string) (time.Duration, bool, error) {
	rep, err := c.roundTrip(c.QueueTTL(key))
	return rep.TTL, rep.Found, err
}

// exchange runs one request whose reply recv reads, on a pipeline with
// nothing else queued: a multi-line reply cannot interleave with other
// requests' replies. send writes the request; the Conn's IO timeout, if
// any, covers the whole exchange and is raised to at least minTimeout.
// what names the caller in the queued-requests error.
func (c *Conn) exchange(what string, minTimeout time.Duration, send, recv func() error) error {
	if c.closed {
		return ErrClosed
	}
	if c.broken != nil {
		return c.broken
	}
	if c.pending > 0 {
		return fmt.Errorf("client: %s with requests still queued", what)
	}
	if c.ioTimeout > 0 {
		c.nc.SetDeadline(time.Now().Add(max(c.ioTimeout, minTimeout)))
		defer c.nc.SetDeadline(time.Time{})
	}
	if err := send(); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return c.fail(err)
	}
	return recv()
}

// readTable reads a table reply up to its END line, handing each
// "<prefix><name> <value>" line to row. An ERR line is the whole reply.
// Any other line, or a line row rejects, breaks the Conn: the rest of the
// table is still in flight and would be read as the next reply.
func (c *Conn) readTable(verb, prefix string, row func(name, val string) bool) error {
	for {
		line, err := c.readRawLine()
		if err != nil {
			return err
		}
		if line == "END" {
			return nil
		}
		if msg, ok := strings.CutPrefix(line, "ERR "); ok {
			return &ServerError{Msg: msg}
		}
		rest, isRow := strings.CutPrefix(line, prefix)
		name, val, ok := strings.Cut(rest, " ")
		if !isRow || !ok || !row(name, val) {
			return c.fail(fmt.Errorf("client: malformed %s line %q", verb, line))
		}
	}
}

// statTable runs a STATS or CLUSTER exchange and returns its table.
func (c *Conn) statTable(what, verb, prefix string) (map[string]string, error) {
	out := make(map[string]string)
	err := c.exchange(what, 0,
		func() error { return encode(c.w, "", &request{verb: verb}) },
		func() error {
			return c.readTable(verb, prefix, func(name, val string) bool {
				out[name] = val
				return true
			})
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stats fetches the server's STATS map.
func (c *Conn) Stats() (map[string]string, error) {
	return c.statTable("Stats", "STATS", "STAT ")
}

// Health-check failure reasons, indexed into Pool's per-reason counters
// and exported as cuckood_client_health_check_failures_total{reason}.
const (
	healthBroken   = iota // sticky transport error from an earlier failure
	healthClosed          // the Conn was closed while pooled
	healthBuffered        // unsolicited buffered bytes: pipeline desync
	healthSocket          // the socket probe saw EOF/error (server went away)
	healthReasonCount
)

// healthReasons names each failure class for the metric's reason label.
var healthReasons = [healthReasonCount]string{"broken", "closed", "buffered", "socket"}

// healthCheck probes a pooled idle connection before it is handed out:
// broken or closed conns, unsolicited buffered bytes (pipeline desync),
// and sockets the server has since closed are all rejected, with the
// failure class reported for per-reason accounting. The probe is one
// non-blocking MSG_PEEK syscall (see probeSocket), so a healthy checkout
// stays cheap.
func (c *Conn) healthCheck() (int, error) {
	if c.broken != nil {
		return healthBroken, c.broken
	}
	if c.closed {
		return healthClosed, ErrClosed
	}
	if c.r.Buffered() > 0 {
		return healthBuffered, c.fail(errors.New("unsolicited data buffered"))
	}
	if sc, ok := c.nc.(syscall.Conn); ok {
		if err := probeSocket(sc); err != nil {
			return healthSocket, c.fail(err)
		}
	}
	return 0, nil
}

// Options configures a Pool's sizing and fault-tolerance behavior. The
// zero value of every field selects a safe default; in particular retries
// and the circuit breaker are opt-in (MaxRetries / BreakerThreshold zero
// keep them off), so NewPool's historical behavior is unchanged.
type Options struct {
	// Size is the maximum number of concurrent connections (default 1).
	Size int
	// DialTimeout bounds each dial (default 5s; negative = no limit).
	DialTimeout time.Duration
	// IOTimeout bounds each Flush write and reply read (0 = none).
	IOTimeout time.Duration
	// MaxRetries is how many times an idempotent one-shot op (Get1, Del,
	// TTL1 — and Set when RetrySets is set) is retried after a transport
	// failure or busy rejection. 0 disables retries.
	MaxRetries int
	// RetrySets opts SET into the retry policy. A retried SET re-executes
	// on the server if the ack was lost; that is idempotent for
	// last-writer-wins caching but not for every workload, hence opt-in.
	RetrySets bool
	// BackoffBase and BackoffMax bound the full-jitter exponential backoff
	// between retries (defaults 2ms and 250ms).
	BackoffBase, BackoffMax time.Duration
	// RetryBudgetMax caps the retry token bucket (default 20): each retry
	// spends one token, each success refills 0.1, so sustained failure
	// degrades to single attempts instead of amplifying load.
	RetryBudgetMax float64
	// BreakerThreshold is how many consecutive transport failures open the
	// circuit breaker (0 disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before admitting
	// a half-open probe (default 1s).
	BreakerCooldown time.Duration
	// Seed makes retry jitter deterministic for tests (0 = time-seeded).
	Seed uint64
	// OnBreakerOpen, when set, is called each time the circuit breaker
	// trips open (closed→open or a failed half-open probe). It runs on the
	// goroutine that recorded the tripping failure, outside the breaker's
	// lock; use it to dump diagnostics the moment an address goes dark.
	OnBreakerOpen func()
	// DialFunc overrides the transport dial, e.g. to inject faults in
	// chaos tests. It receives the dial timeout already resolved.
	DialFunc func(addr string, timeout time.Duration) (net.Conn, error)
}

func (o *Options) setDefaults() {
	if o.Size < 1 {
		o.Size = 1
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	} else if o.DialTimeout < 0 {
		o.DialTimeout = 0
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = time.Second
	}
	if o.DialFunc == nil {
		o.DialFunc = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
}

// Pool is a fixed-size pool of Conns safe for concurrent use. Get blocks
// when every connection is checked out, bounding the daemon's connection
// load to Size regardless of caller concurrency. Idle connections are
// health-checked at checkout and broken ones replaced, so a server restart
// costs each pooled connection one discard, not one caller error.
type Pool struct {
	addr string
	opt  Options
	mu   sync.Mutex
	free []*Conn
	sem  chan struct{}
	done bool

	brk     *breaker
	backoff *backoff
	budget  *retryBudget

	dials          atomic.Uint64 // connections dialed over the pool's lifetime
	dialFails      atomic.Uint64 // dial attempts that failed
	discards       atomic.Uint64 // connections closed instead of returned
	healthDiscards atomic.Uint64 // idle connections failing the checkout health check
	retries        atomic.Uint64 // op retries performed
	budgetDenied   atomic.Uint64 // retries suppressed by an empty budget
	timeouts       atomic.Uint64 // transport errors that were deadline timeouts
	busyErrs       atomic.Uint64 // server busy rejections observed
	leaseWaits     atomic.Uint64 // lease-protocol rounds spent waiting on another client's fill
	leaseFills     atomic.Uint64 // fills published after winning a lease
	leaseStale     atomic.Uint64 // stale copies accepted while a fill was in flight

	// healthFails counts checkout health-check failures by reason,
	// indexed by the health* constants.
	healthFails [healthReasonCount]atomic.Uint64
}

// PoolStats is a point-in-time snapshot of a Pool's connection accounting,
// for export on a metrics endpoint: InUse/Idle/BreakerState are gauges,
// the rest are cumulative counters.
type PoolStats struct {
	// Capacity is the pool's maximum concurrent connection count.
	Capacity int
	// InUse is the number of connections currently checked out.
	InUse int
	// Idle is the number of connections parked in the free list.
	Idle int
	// Dials counts connections dialed over the pool's lifetime.
	Dials uint64
	// DialFailures counts dial attempts that failed.
	DialFailures uint64
	// Discards counts connections closed rather than pooled (transport
	// errors, unflushed requests, pool shutdown).
	Discards uint64
	// HealthCheckDiscards counts idle connections rejected by the checkout
	// health check (already counted in Discards as well).
	HealthCheckDiscards uint64
	// HealthCheckFailures breaks HealthCheckDiscards down by failure class
	// ("broken", "closed", "buffered", "socket").
	HealthCheckFailures map[string]uint64
	// RetryBudgetTokens is the retry token bucket's current level (its
	// configured max while retries are disabled — nothing is spending).
	RetryBudgetTokens float64
	// Retries counts operation retry attempts.
	Retries uint64
	// RetryBudgetDenied counts retries suppressed by an exhausted budget.
	RetryBudgetDenied uint64
	// Timeouts counts transport failures that were deadline timeouts.
	Timeouts uint64
	// BusyRejections counts server "ERR busy" overload rejections.
	BusyRejections uint64
	// LeaseWaits counts GetOrFill rounds spent waiting on another
	// client's in-flight fill; LeaseFills counts fills published after
	// winning a lease; LeaseStaleServed counts stale copies accepted.
	LeaseWaits, LeaseFills, LeaseStaleServed uint64
	// BreakerState is the circuit breaker position ("closed", "open",
	// "half-open").
	BreakerState BreakerState
	// BreakerOpens, BreakerCloses, and BreakerDenied count breaker trips,
	// recoveries, and operations fast-failed while open.
	BreakerOpens, BreakerCloses, BreakerDenied uint64
}

// Stats returns the pool's current connection accounting.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	idle := len(p.free)
	p.mu.Unlock()
	state, opens, closes, denied := p.brk.snapshot()
	hf := make(map[string]uint64, healthReasonCount)
	for i, name := range healthReasons {
		hf[name] = p.healthFails[i].Load()
	}
	// A checked-out connection holds a sem slot; idle ones do not.
	return PoolStats{
		Capacity:            cap(p.sem),
		InUse:               len(p.sem),
		Idle:                idle,
		Dials:               p.dials.Load(),
		DialFailures:        p.dialFails.Load(),
		Discards:            p.discards.Load(),
		HealthCheckDiscards: p.healthDiscards.Load(),
		HealthCheckFailures: hf,
		RetryBudgetTokens:   p.budgetLevel(),
		Retries:             p.retries.Load(),
		RetryBudgetDenied:   p.budgetDenied.Load(),
		Timeouts:            p.timeouts.Load(),
		BusyRejections:      p.busyErrs.Load(),
		LeaseWaits:          p.leaseWaits.Load(),
		LeaseFills:          p.leaseFills.Load(),
		LeaseStaleServed:    p.leaseStale.Load(),
		BreakerState:        state,
		BreakerOpens:        opens,
		BreakerCloses:       closes,
		BreakerDenied:       denied,
	}
}

// NewPool creates a pool of up to size lazily dialed connections with
// default options (no retries, no breaker).
func NewPool(addr string, size int) *Pool {
	return NewPoolWith(addr, Options{Size: size})
}

// NewPoolWith creates a pool with explicit fault-tolerance options.
func NewPoolWith(addr string, opt Options) *Pool {
	opt.setDefaults()
	p := &Pool{
		addr: addr,
		opt:  opt,
		sem:  make(chan struct{}, opt.Size),
		brk: &breaker{
			threshold: opt.BreakerThreshold,
			cooldown:  opt.BreakerCooldown,
			onOpen:    opt.OnBreakerOpen,
		},
	}
	if opt.MaxRetries > 0 {
		p.backoff = newBackoff(opt.BackoffBase, opt.BackoffMax, opt.Seed)
		p.budget = newRetryBudget(opt.RetryBudgetMax)
	}
	return p
}

// Get checks a connection out of the pool, dialing if none is idle. It
// fails fast with ErrCircuitOpen while the breaker is open, and discards
// (then replaces) idle connections that fail the health check.
func (p *Pool) Get() (*Conn, error) {
	if !p.brk.allow() {
		return nil, ErrCircuitOpen
	}
	p.sem <- struct{}{}
	for {
		p.mu.Lock()
		if p.done {
			p.mu.Unlock()
			<-p.sem
			return nil, ErrClosed
		}
		var c *Conn
		if n := len(p.free); n > 0 {
			c = p.free[n-1]
			p.free = p.free[:n-1]
		}
		p.mu.Unlock()
		if c == nil {
			break
		}
		reason, err := c.healthCheck()
		if err == nil {
			return c, nil
		}
		c.Close()
		p.discards.Add(1)
		p.healthDiscards.Add(1)
		p.healthFails[reason].Add(1)
	}
	nc, err := p.opt.DialFunc(p.addr, p.opt.DialTimeout)
	if err != nil {
		<-p.sem
		p.dialFails.Add(1)
		p.brk.record(false)
		return nil, err
	}
	p.dials.Add(1)
	return newConn(nc, p.opt.IOTimeout), nil
}

// Put returns a connection to the pool. A Conn with queued-but-unflushed
// requests, a sticky transport error, or a closed socket is closed and
// discarded instead; Discard does both explicitly.
func (p *Pool) Put(c *Conn) {
	p.mu.Lock()
	if p.done || c.closed || c.broken != nil || c.pending > 0 {
		done := p.done
		p.mu.Unlock()
		c.Close()
		p.discards.Add(1)
		if !done {
			p.brk.record(c.broken != nil)
		}
		<-p.sem
		return
	}
	p.free = append(p.free, c)
	p.mu.Unlock()
	p.brk.record(true)
	<-p.sem
}

// Discard closes a checked-out connection without pooling it, counting it
// as a transport failure for the circuit breaker.
func (p *Pool) Discard(c *Conn) {
	c.Close()
	p.discards.Add(1)
	p.brk.record(false)
	<-p.sem
}

// Close closes all idle connections; checked-out ones close on Put.
func (p *Pool) Close() {
	p.mu.Lock()
	p.done = true
	free := p.free
	p.free = nil
	p.mu.Unlock()
	for _, c := range free {
		c.Close()
	}
}

// pooled runs fn on a pooled Conn with the pool's retry policy and
// returns its result. retry gates retries entirely (non-idempotent ops
// pass false unless opted in); each retry consumes budget and sleeps a
// full-jitter backoff first.
func pooled[T any](p *Pool, retry bool, fn func(c *Conn) (T, error)) (T, error) {
	attempts := 1
	if retry && p.opt.MaxRetries > 0 {
		attempts += p.opt.MaxRetries
	}
	var out T
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			if !p.budget.take() {
				p.budgetDenied.Add(1)
				break
			}
			p.retries.Add(1)
			time.Sleep(p.backoff.sleepFor(a))
		}
		c, err := p.Get()
		if err != nil {
			if errors.Is(err, ErrClosed) || errors.Is(err, ErrCircuitOpen) {
				// Terminal for this op: the pool is gone, or the breaker
				// wants silence — backing off here would defeat its point.
				return out, err
			}
			lastErr = err
			continue
		}
		out, err = fn(c)
		p.release(c, err)
		if err == nil {
			if p.budget != nil {
				p.budget.success()
			}
			return out, nil
		}
		lastErr = err
		if !retryable(err) {
			return out, err
		}
	}
	return out, lastErr
}

// roundTrip runs one request on a pooled Conn under the retry policy:
// queue buffers it, and every attempt carries the trace ID ("" =
// untraced). retry is the verb's idempotence rule; each pooled one-shot
// states it here, at its one call site.
func (p *Pool) roundTrip(retry bool, trace string, queue func(c *Conn) error) (Reply, error) {
	return pooled(p, retry, func(c *Conn) (Reply, error) {
		if err := c.SetTrace(trace); err != nil {
			return Reply{}, err
		}
		defer c.SetTrace("")
		return c.roundTrip(queue(c))
	})
}

// Set is a pooled one-shot SET. It is retried only when Options.RetrySets
// opted SETs into the retry policy.
func (p *Pool) Set(key, val string, ttl time.Duration) error {
	return p.SetTraced(key, val, ttl, "")
}

// Get1 is a pooled one-shot GET (named to avoid clashing with pool
// checkout).
func (p *Pool) Get1(key string) (string, bool, error) {
	return p.GetTraced(key, "")
}

// Del is a pooled one-shot DEL.
func (p *Pool) Del(key string) (bool, error) {
	rep, err := p.roundTrip(true, "", func(c *Conn) error { return c.QueueDel(key) })
	return rep.Found, err
}

// GetV1 is a pooled one-shot GETV.
func (p *Pool) GetV1(key string) (val string, ver uint64, found bool, err error) {
	rep, err := p.getV(key, "")
	return rep.Value, rep.Ver, rep.Found, err
}

// getV is GetV1 with a trace ID, returning the whole reply.
func (p *Pool) getV(key, trace string) (Reply, error) {
	return p.roundTrip(true, trace, func(c *Conn) error { return c.QueueGetV(key) })
}

// SetV1 is a pooled one-shot SETV, returning the write's version word.
// Like Set, it is retried only when Options.RetrySets is set.
func (p *Pool) SetV1(key, val string, ttl time.Duration) (uint64, error) {
	rep, err := p.setV(key, val, ttl, "")
	return rep.Ver, err
}

// setV is SetV1 with a trace ID, returning the whole reply.
func (p *Pool) setV(key, val string, ttl time.Duration, trace string) (Reply, error) {
	return p.roundTrip(p.opt.RetrySets, trace, func(c *Conn) error { return c.QueueSetV(key, val, ttl) })
}

// Lease defaults for GetOrFill: the back-off used when the server
// offers no hint, and the round bound (100 rounds × the server's 20ms
// default hint covers one full 2s lease lifetime, so a crashed filler
// is always outlived).
const (
	leaseDefaultWait = 20 * time.Millisecond
	leaseMaxRounds   = 100
)

// ErrLeaseWait is returned by GetOrFill when the key stayed unfilled
// through the whole round budget — every round lost the lease race and
// no fill ever landed.
var ErrLeaseWait = errors.New("client: lease wait exhausted")

// GetOrFill fetches key, collapsing concurrent misses into one backend
// fill via the server's miss-lease protocol: a live hit returns
// immediately; on a miss the first caller wins a fill token, computes
// the value with fill, and publishes it with SETL while everyone else
// waits briefly (or, with acceptStale, takes an expired copy the server
// still holds). fill runs at most once per call and only after winning
// the lease; its value is returned to this caller even when the
// publish loses to a concurrent fresher write.
func (p *Pool) GetOrFill(key string, ttl time.Duration, acceptStale bool, fill func() (string, error)) (string, error) {
	for round := 0; round < leaseMaxRounds; round++ {
		rep, err := p.roundTrip(true, "", func(c *Conn) error { return c.QueueLease(key) })
		if err != nil {
			return "", err
		}
		switch {
		case rep.Found:
			return rep.Value, nil
		case rep.Lease != 0:
			val, err := fill()
			if err != nil {
				// The unreleased lease expires on its own; waiters fall
				// back to re-acquiring after the TTL.
				return "", err
			}
			p.roundTrip(false, "", func(c *Conn) error { return c.QueueSetLease(key, rep.Lease, val, ttl) })
			// A rejected fill means a fresher write already landed; the
			// freshly computed value is still correct to serve here.
			p.leaseFills.Add(1)
			return val, nil
		case rep.Stale && acceptStale:
			p.leaseStale.Add(1)
			return rep.Value, nil
		default:
			p.leaseWaits.Add(1)
			wait := rep.Wait
			if wait <= 0 {
				wait = leaseDefaultWait
			}
			time.Sleep(wait)
		}
	}
	return "", ErrLeaseWait
}

// TTL1 is a pooled one-shot TTL query.
func (p *Pool) TTL1(key string) (time.Duration, bool, error) {
	rep, err := p.roundTrip(true, "", func(c *Conn) error { return c.QueueTTL(key) })
	return rep.TTL, rep.Found, err
}

// Collect implements obs.Collector so applications embedding the client
// can export its fault-tolerance counters next to their own metrics.
func (p *Pool) Collect(m *obs.Metrics) {
	p.CollectWith(m)
}

// CollectWith renders the same series as Collect with the given label
// pairs attached to every sample. The cluster client uses it to export
// one series set per node (label "node"), so a dashboard can tell which
// peer's breaker tripped.
func (p *Pool) CollectWith(m *obs.Metrics, labels ...string) {
	v := poolView{PoolStats: p.Stats(), edges: p.brk.transitionCounts()}
	for _, s := range poolSeries {
		emit := m.Counter
		if s.kind == obs.KindGauge {
			emit = m.Gauge
		}
		emit(s.name, s.help, s.read(&v), slices.Concat(s.label, labels)...)
	}
}

// poolView is what one scrape reads: the PoolStats snapshot plus the
// breaker's per-edge transition counts.
type poolView struct {
	PoolStats
	edges [brEdgeCount]uint64
}

// poolSeriesDef declares one /metrics sample of a Pool.
type poolSeriesDef struct {
	name, help string
	kind       obs.Kind // obs.KindCounter or obs.KindGauge
	label      []string // the sample's own label pair within a shared family
	read       func(v *poolView) float64
}

// poolSeries is the single declaration of a Pool's /metrics series, in
// export order; CollectWith renders every entry. Adding a series means
// adding one entry here (and its PoolStats field).
var poolSeries = func() []poolSeriesDef {
	counter, gauge := obs.KindCounter, obs.KindGauge
	defs := []poolSeriesDef{
		{"cuckood_client_pool_capacity", "Maximum concurrent pooled connections.", gauge, nil, func(v *poolView) float64 { return float64(v.Capacity) }},
		{"cuckood_client_pool_in_use", "Connections currently checked out.", gauge, nil, func(v *poolView) float64 { return float64(v.InUse) }},
		{"cuckood_client_pool_idle", "Connections parked in the free list.", gauge, nil, func(v *poolView) float64 { return float64(v.Idle) }},
		{"cuckood_client_dials_total", "Connections dialed over the pool's lifetime.", counter, nil, func(v *poolView) float64 { return float64(v.Dials) }},
		{"cuckood_client_dial_failures_total", "Dial attempts that failed.", counter, nil, func(v *poolView) float64 { return float64(v.DialFailures) }},
		{"cuckood_client_discards_total", "Connections closed instead of pooled.", counter, nil, func(v *poolView) float64 { return float64(v.Discards) }},
		{"cuckood_client_health_discards_total", "Idle connections rejected by the checkout health check.", counter, nil, func(v *poolView) float64 { return float64(v.HealthCheckDiscards) }},
	}
	for _, reason := range healthReasons {
		defs = append(defs, poolSeriesDef{"cuckood_client_health_check_failures_total",
			"Checkout health-check failures by class: broken, closed, buffered (pipeline desync), socket (peer went away).",
			counter, []string{"reason", reason}, func(v *poolView) float64 { return float64(v.HealthCheckFailures[reason]) }})
	}
	defs = append(defs, []poolSeriesDef{
		{"cuckood_client_retries_total", "Operation retry attempts.", counter, nil, func(v *poolView) float64 { return float64(v.Retries) }},
		{"cuckood_client_retry_budget_denied_total", "Retries suppressed by an exhausted retry budget.", counter, nil, func(v *poolView) float64 { return float64(v.RetryBudgetDenied) }},
		{"cuckood_client_retry_budget_tokens", "Retry token bucket level; near zero means retries are being rationed.", gauge, nil, func(v *poolView) float64 { return v.RetryBudgetTokens }},
		{"cuckood_client_timeouts_total", "Transport failures that were deadline timeouts.", counter, nil, func(v *poolView) float64 { return float64(v.Timeouts) }},
		{"cuckood_client_busy_rejections_total", "Server ERR busy overload rejections observed.", counter, nil, func(v *poolView) float64 { return float64(v.BusyRejections) }},
		{"cuckood_client_lease_waits_total", "GetOrFill rounds spent waiting on another client's in-flight fill.", counter, nil, func(v *poolView) float64 { return float64(v.LeaseWaits) }},
		{"cuckood_client_lease_fills_total", "Fills published after winning a miss lease.", counter, nil, func(v *poolView) float64 { return float64(v.LeaseFills) }},
		{"cuckood_client_lease_stale_served_total", "Stale copies accepted while a fill was in flight.", counter, nil, func(v *poolView) float64 { return float64(v.LeaseStaleServed) }},
		{"cuckood_client_breaker_state", "Circuit breaker position: 0 closed, 1 open, 2 half-open.", gauge, nil, func(v *poolView) float64 { return float64(v.BreakerState) }},
		{"cuckood_client_breaker_opens_total", "Circuit breaker trips.", counter, nil, func(v *poolView) float64 { return float64(v.BreakerOpens) }},
		{"cuckood_client_breaker_closes_total", "Circuit breaker recoveries.", counter, nil, func(v *poolView) float64 { return float64(v.BreakerCloses) }},
		{"cuckood_client_breaker_denied_total", "Operations fast-failed while the breaker was open.", counter, nil, func(v *poolView) float64 { return float64(v.BreakerDenied) }},
	}...)
	for i, e := range brEdges {
		defs = append(defs, poolSeriesDef{"cuckood_client_breaker_transitions_total", "Circuit breaker state transitions by edge.",
			counter, []string{"from", e.from, "to", e.to}, func(v *poolView) float64 { return float64(v.edges[i]) }})
	}
	return defs
}()

// budgetLevel returns the retry budget's current token count, or its
// configured maximum when retries are disabled (no budget exists, so
// nothing is ever denied).
func (p *Pool) budgetLevel() float64 {
	if p.budget == nil {
		if p.opt.RetryBudgetMax > 0 {
			return p.opt.RetryBudgetMax
		}
		return 20
	}
	return p.budget.level()
}

// release puts c back unless err was a transport failure, and keeps the
// failure-class counters.
func (p *Pool) release(c *Conn, err error) {
	var se *ServerError
	if err == nil || errors.As(err, &se) {
		if IsBusy(err) {
			p.busyErrs.Add(1)
		}
		p.Put(c)
		return
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		p.timeouts.Add(1)
	}
	p.Discard(c)
}
