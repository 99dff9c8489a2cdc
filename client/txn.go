package client

// Transaction verbs (docs/TRANSACTIONS.md): the commutative counters
// (INCR/DECR/ADD/MAXUPDATE), compare-and-set, and the MULTI…EXEC queue.
//
// None of these are idempotent — a retried INCR double-counts, a retried
// CAS or EXEC can observe (and clobber) its own first attempt's effects —
// so every pooled one-shot here runs with retries off and a transport
// failure surfaces to the caller instead of being retried. This
// holds even when Options.RetrySets opted SETs into retries: RetrySets
// covers last-writer-wins SETs only, never the read-modify-write verbs.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ErrTxnAborted is returned by ExecTxn when the server refused EXEC
// because a queue-time error poisoned the transaction.
var ErrTxnAborted = errors.New("client: transaction aborted")

// QueueIncr buffers an INCR (delta >= 0) or DECR-equivalent (delta < 0)
// request: key's integer value changes by delta, starting from 0 for a
// missing key.
func (c *Conn) QueueIncr(key string, delta int64) error {
	return c.queue(numReq("INCR", key, delta))
}

// QueueMaxUpdate buffers a MAXUPDATE request: key's integer value becomes
// max(current, val), treating a missing key as 0.
func (c *Conn) QueueMaxUpdate(key string, val int64) error {
	return c.queue(numReq("MAXUPDATE", key, val))
}

// QueueCAS buffers a CAS request: key's value becomes newVal only if it
// currently equals old. old is a single protocol token (no spaces);
// newVal may contain spaces but not newlines.
func (c *Conn) QueueCAS(key, old, newVal string) error {
	return c.queue(casReq(key, old, newVal))
}

// Incr adds delta to key's integer value (negative deltas subtract).
func (c *Conn) Incr(key string, delta int64) error {
	_, err := c.roundTrip(c.QueueIncr(key, delta))
	return err
}

// MaxUpdate raises key's integer value to val if it is currently lower.
func (c *Conn) MaxUpdate(key string, val int64) error {
	_, err := c.roundTrip(c.QueueMaxUpdate(key, val))
	return err
}

// CAS stores newVal only if key currently holds old. It returns
// (stored, found): (true, true) on success, (false, true) on a value
// conflict, (false, false) when the key does not exist.
func (c *Conn) CAS(key, old, newVal string) (stored, found bool, err error) {
	rep, err := c.roundTrip(c.QueueCAS(key, old, newVal))
	return rep.Found, rep.Found || rep.Conflict, err
}

// Txn accumulates operations client-side for one MULTI…EXEC exchange.
// Nothing touches the network until Exec/ExecTxn, which ships the whole
// transaction — MULTI, every op, EXEC — in a single pipelined write. The
// zero value is ready to use; methods chain. A validation error sticks to
// the Txn and is returned by Exec, so call sites can build the whole
// transaction without per-op error checks.
type Txn struct {
	keys []string      // each op's key, in queue order
	ops  bytes.Buffer  // the encoded op lines
	w    *bufio.Writer // encodes into ops, flushed after every op
	err  error
}

// NewTxn returns an empty transaction builder.
func NewTxn() *Txn { return &Txn{} }

// Len returns the number of buffered operations.
func (t *Txn) Len() int { return len(t.keys) }

// Err returns the first validation error, if any.
func (t *Txn) Err() error { return t.err }

// Keys returns the distinct keys the transaction touches, in first-use
// order (the cluster router uses this to pin the transaction to a node).
func (t *Txn) Keys() []string {
	seen := make(map[string]struct{}, len(t.keys))
	out := make([]string, 0, len(t.keys))
	for _, k := range t.keys {
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			out = append(out, k)
		}
	}
	return out
}

// add encodes one op, or records why it is invalid.
func (t *Txn) add(r request) *Txn {
	if t.err != nil {
		return t
	}
	if t.w == nil {
		t.w = bufio.NewWriterSize(&t.ops, 256)
	}
	if t.err = encode(t.w, "", &r); t.err == nil {
		t.w.Flush()
		t.keys = append(t.keys, r.key)
	}
	return t
}

// Get queues a read; its EXEC result carries the value.
func (t *Txn) Get(key string) *Txn {
	return t.add(keyReq("GET", key))
}

// Set queues a write (ttl 0 = no expiry).
func (t *Txn) Set(key, val string, ttl time.Duration) *Txn {
	return t.add(setReq(key, val, ttl))
}

// Del queues a delete; its EXEC result is Found when the key existed.
func (t *Txn) Del(key string) *Txn {
	return t.add(keyReq("DEL", key))
}

// Incr queues an increment by delta (negative subtracts; missing keys
// start at 0).
func (t *Txn) Incr(key string, delta int64) *Txn {
	return t.add(numReq("INCR", key, delta))
}

// MaxUpdate queues a monotonic raise to val.
func (t *Txn) MaxUpdate(key string, val int64) *Txn {
	return t.add(numReq("MAXUPDATE", key, val))
}

// CAS queues a compare-and-set; its EXEC result is Found on success,
// Conflict on a value mismatch, neither on a missing key.
func (t *Txn) CAS(key, old, newVal string) *Txn {
	return t.add(casReq(key, old, newVal))
}

// ExecTxn runs t as one MULTI…EXEC exchange and returns the per-op
// results in queue order. The ops execute atomically on the server: reads
// see a consistent snapshot and no other writer interleaves (per-op
// failures like a CAS conflict are reported in the results, not by error).
// The exchange is a single write followed by a deterministic reply
// sequence, so a transport failure mid-exchange breaks the Conn exactly
// like a failed Flush would.
func (c *Conn) ExecTxn(t *Txn) ([]Reply, error) {
	if t.err != nil {
		return nil, t.err
	}
	n := t.Len()
	if n == 0 {
		return nil, nil
	}
	var replies []Reply
	send := func() error {
		encode(c.w, "", &request{verb: "MULTI"})
		c.w.Write(t.ops.Bytes())
		// The trace rides on the EXEC line: that is the request whose span
		// covers the transaction's OCC retries and commit.
		return encode(c.w, c.trace, &request{verb: "EXEC"})
	}
	// Reply sequence: MULTI ack, one line per queued op, then either an
	// "EXEC <n>" header followed by n results or an ERR for the whole
	// transaction. Queue-time rejections surface per line; the count is
	// fixed either way, so the stream stays in sync.
	recv := func() error {
		line, err := c.readRawLine()
		if err != nil {
			return err
		}
		if line != "OK" {
			return c.txnRefused(line, n)
		}
		var queueErr error
		for i := 0; i < n; i++ {
			if line, err = c.readRawLine(); err != nil {
				return err
			}
			if line != "QUEUED" && queueErr == nil {
				queueErr = txnLineErr(line)
			}
		}
		if line, err = c.readRawLine(); err != nil {
			return err
		}
		count, ok := strings.CutPrefix(line, "EXEC ")
		if !ok {
			if queueErr != nil {
				return fmt.Errorf("%w: %w", ErrTxnAborted, queueErr)
			}
			return txnLineErr(line)
		}
		if got, err := strconv.Atoi(count); err != nil || got != n {
			return c.fail(fmt.Errorf("client: bad EXEC header %q for %d ops", line, n))
		}
		replies = make([]Reply, n)
		for i := range replies {
			if replies[i], err = c.readReply(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.exchange("ExecTxn", 0, send, recv); err != nil {
		return nil, err
	}
	return replies, nil
}

// txnRefused drains the deterministic remainder of a transaction exchange
// whose MULTI was refused (n queue replies plus the EXEC reply), keeping
// the stream in sync, and returns the refusal.
func (c *Conn) txnRefused(multiLine string, n int) error {
	for i := 0; i < n+1; i++ {
		if _, err := c.readRawLine(); err != nil {
			return err
		}
	}
	return txnLineErr(multiLine)
}

// txnLineErr converts an unexpected transaction reply line to an error.
func txnLineErr(line string) error {
	if msg, ok := strings.CutPrefix(line, "ERR "); ok {
		return &ServerError{Msg: msg}
	}
	return fmt.Errorf("client: unexpected transaction reply %q", line)
}

// Incr is a pooled one-shot INCR/DECR. Never retried: a lost ack leaves
// the increment's fate unknown, and re-running it would double-count.
func (p *Pool) Incr(key string, delta int64) error {
	_, err := p.roundTrip(false, "", func(c *Conn) error { return c.QueueIncr(key, delta) })
	return err
}

// MaxUpdate is a pooled one-shot MAXUPDATE. Never retried (same
// non-idempotence rule as Incr; a raced retry can resurrect a lower max
// observed by other readers in between).
func (p *Pool) MaxUpdate(key string, val int64) error {
	_, err := p.roundTrip(false, "", func(c *Conn) error { return c.QueueMaxUpdate(key, val) })
	return err
}

// CAS is a pooled one-shot compare-and-set. Never retried: after a lost
// ack the first attempt may have committed, and retrying would report a
// spurious conflict — or worse, succeed against its own write.
func (p *Pool) CAS(key, old, newVal string) (stored, found bool, err error) {
	rep, err := p.roundTrip(false, "", func(c *Conn) error { return c.QueueCAS(key, old, newVal) })
	return rep.Found, rep.Found || rep.Conflict, err
}

// ExecTxn runs t through a pooled connection, exactly once (MULTI…EXEC is
// the least idempotent exchange the protocol has).
func (p *Pool) ExecTxn(t *Txn) ([]Reply, error) {
	return pooled(p, false, func(c *Conn) ([]Reply, error) { return c.ExecTxn(t) })
}
