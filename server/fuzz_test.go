package server

import (
	"bytes"
	"testing"
	"time"
)

// FuzzParseCommand throws arbitrary request lines at the text-protocol
// parser and checks its invariants rather than exact outputs:
//
//   - it never panics (the implicit property of any fuzz target);
//   - a parse error never coexists with a usable request, and vice versa;
//   - whatever it accepts respects the protocol's own bounds (key length,
//     TTL positivity, HANDOFF payload bounds, MIGRATE operand count);
//   - key/val always alias the input line, never copies with different
//     content (conn.go depends on aliasing for its zero-copy fast path).
//
// Run via `make fuzz` or `go test -fuzz FuzzParseCommand ./server/`.
func FuzzParseCommand(f *testing.F) {
	seeds := []string{
		"GET k",
		"SET k v",
		"SET k value with spaces",
		"SETEX k 1500 v",
		"DEL k",
		"TTL k",
		"STATS",
		"QUIT",
		"CLUSTER",
		"HANDOFF 1024",
		"HANDOFF 67108865",
		"MIGRATE shed 127.0.0.1:2 127.0.0.1:1 42 0 127.0.0.1:1,127.0.0.1:2",
		"MIGRATE home b a 18446744073709551615 4294967295 a,b",
		"get lower",
		"SET " + string(bytes.Repeat([]byte("k"), 251)) + " v",
		"",
		" ",
		"\x00\xff",
		"SET k\x00 v",
		// Transaction verbs (docs/TRANSACTIONS.md).
		"INCR k",
		"INCR k 5",
		"DECR k 3",
		"DECR k -9223372036854775808", // negating MinInt64 overflows
		"ADD k -42",
		"ADD k",                       // operand required
		"INCR k 9223372036854775807",  // MaxInt64
		"INCR k 9223372036854775808",  // MaxInt64+1: must be rejected
		"INCR k -9223372036854775809", // MinInt64-1: must be rejected
		"INCR k 0x10",
		"INCR k 1 2",
		"MAXUPDATE k 100",
		"MAXUPDATE k +7",
		"CAS k old new",
		"CAS k old new value with spaces",
		"CAS k old", // new value required
		"CAS k",     // truncated
		"MULTI",
		"MULTI extra", // no operands allowed
		"EXEC",
		"EXEC 3",
		"DISCARD",
		// Tracing verbs (docs/OBSERVABILITY.md).
		"TRACE abc123 GET k",
		"TRACE t SET k v",
		"TRACE",                 // id and command both missing
		"TRACE id-only",         // command missing
		"TRACE x TRACE y GET k", // prefix is legal exactly once
		"TRACE " + string(bytes.Repeat([]byte("i"), 64)) + " GET k",
		"TRACE " + string(bytes.Repeat([]byte("i"), 65)) + " GET k", // id too long
		"HOTKEYS",
		"HOTKEYS 5",
		"HOTKEYS 0",
		"HOTKEYS 128",
		"HOTKEYS 129",
		"HOTKEYS 5 extra",
		// Replication & lease verbs (docs/REPLICATION.md).
		"GETV k",
		"GETV",
		"SETV k 0 v",
		"SETV k 1500 value with spaces",
		"SETV k -1 v",         // negative TTL must be rejected
		"SETV k 4294967296 v", // TTL overflows uint32
		"LEASE k",
		"LEASE",
		"SETL k deadbeef 0 v",
		"SETL k DEADBEEF 1500 v",
		"SETL k 0 0 v",                 // token 0 is never granted
		"SETL k ffffffffffffffff 0 v",  // max 16-hex-digit token
		"SETL k 1ffffffffffffffff 0 v", // 17 digits: too long
		"SETL k nothex 0 v",
		"SETL k deadbeef v", // truncated: ttl missing
		"SETL k",            // truncated: everything missing
		"REPLSET k 5 0 v",
		"REPLSET k 18446744073709551615 0 v", // MaxUint64 version word
		"REPLSET k 18446744073709551616 0 v", // MaxUint64+1 must be rejected, not aliased
		"REPLSET k 0 0 v",                    // version 0 reserved for "absent"
		"REPLSET k 5 -1 v",                   // negative absolute expiry
		"REPLSET k 5 9223372036854775807 value with spaces",
		"REPLSET " + string(bytes.Repeat([]byte("k"), 251)) + " 5 0 v",
		"REPLDEL k 7",
		"REPLDEL k 0",
		"REPLDEL k 7 extra", // batch framing: exactly two operands
		"REPLDEL k",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	// One minimal valid line per verbs entry, so a new verb is seeded
	// the moment it is declared.
	for op := range verbs {
		f.Add([]byte(verbLine(opCode(op))))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		if bytes.ContainsAny(line, "\r\n") {
			// readLine strips line terminators before parseRequest ever
			// sees the bytes; embedded ones cannot occur.
			return
		}
		req, err := parseRequest(line)
		if err != nil {
			if req.op != 0 || req.key != nil || req.val != nil || req.old != nil ||
				req.delta != 0 || req.mig != nil || req.payload != 0 || req.trace != nil {
				t.Fatalf("error %v returned alongside non-zero request %+v", err, req)
			}
			return
		}
		switch req.op {
		case opGet, opDel, opTTL:
			if len(req.key) == 0 || len(req.key) > maxKeyLen {
				t.Fatalf("%s accepted key of length %d", req.op, len(req.key))
			}
		case opSet:
			if len(req.key) == 0 || len(req.key) > maxKeyLen || req.val == nil {
				t.Fatalf("SET accepted bad operands %+v", req)
			}
		case opSetEx:
			if len(req.key) == 0 || len(req.key) > maxKeyLen || req.val == nil {
				t.Fatalf("SETEX accepted bad operands %+v", req)
			}
			if req.ttl < time.Millisecond {
				t.Fatalf("SETEX accepted non-positive ttl %v", req.ttl)
			}
		case opStats, opQuit, opCluster, opMulti, opExec, opDiscard:
			// No operands to validate.
		case opHotKeys:
			if req.delta < 1 || req.delta > hotKeysMax {
				t.Fatalf("HOTKEYS accepted count %d", req.delta)
			}
			if req.key != nil || req.val != nil || req.old != nil {
				t.Fatalf("HOTKEYS parsed with key/value operands %+v", req)
			}
		case opIncr, opDecr, opAdd, opMaxUpdate:
			if len(req.key) == 0 || len(req.key) > maxKeyLen {
				t.Fatalf("%s accepted key of length %d", req.op, len(req.key))
			}
			if req.old != nil || req.val != nil {
				t.Fatalf("counter verb parsed with CAS operands %+v", req)
			}
			// Any int64 delta is legal (DECR MinInt64 wraps back to itself);
			// the parse itself succeeding is the invariant.
		case opCAS:
			if len(req.key) == 0 || len(req.key) > maxKeyLen {
				t.Fatalf("CAS accepted key of length %d", len(req.key))
			}
			if len(req.old) == 0 || req.val == nil {
				t.Fatalf("CAS accepted bad operands %+v", req)
			}
			if bytes.ContainsRune(req.old, ' ') {
				t.Fatalf("CAS old value %q contains a space; old must be a single token", req.old)
			}
		case opGetV, opLease:
			if len(req.key) == 0 || len(req.key) > maxKeyLen {
				t.Fatalf("%s accepted key of length %d", req.op, len(req.key))
			}
			if req.val != nil || req.old != nil {
				t.Fatalf("%s parsed with value operands %+v", req.op, req)
			}
		case opSetV:
			if len(req.key) == 0 || len(req.key) > maxKeyLen || req.val == nil {
				t.Fatalf("SETV accepted bad operands %+v", req)
			}
			if req.ttl < 0 {
				t.Fatalf("SETV accepted negative ttl %v", req.ttl)
			}
		case opSetLease:
			if len(req.key) == 0 || len(req.key) > maxKeyLen || req.val == nil {
				t.Fatalf("SETL accepted bad operands %+v", req)
			}
			if req.ver == 0 {
				t.Fatal("SETL accepted the zero lease token, which is never granted")
			}
			if req.ttl < 0 {
				t.Fatalf("SETL accepted negative ttl %v", req.ttl)
			}
		case opReplSet:
			if len(req.key) == 0 || len(req.key) > maxKeyLen || req.val == nil {
				t.Fatalf("REPLSET accepted bad operands %+v", req)
			}
			if req.ver == 0 {
				t.Fatal("REPLSET accepted version 0, reserved for absent entries")
			}
			if req.delta < 0 {
				t.Fatalf("REPLSET accepted negative absolute expiry %d", req.delta)
			}
		case opReplDel:
			if len(req.key) == 0 || len(req.key) > maxKeyLen {
				t.Fatalf("REPLDEL accepted key of length %d", len(req.key))
			}
			if req.ver == 0 {
				t.Fatal("REPLDEL accepted version 0, reserved for absent entries")
			}
			if req.val != nil || req.old != nil {
				t.Fatalf("REPLDEL parsed with value operands %+v", req)
			}
		case opHandoff:
			if req.payload == 0 || req.payload > handoffMaxBytes {
				t.Fatalf("HANDOFF accepted payload length %d", req.payload)
			}
		case opMigrate:
			m := req.mig
			if m == nil {
				t.Fatal("MIGRATE parsed without args")
			}
			if m.mode != "home" && m.mode != "shed" {
				t.Fatalf("MIGRATE accepted mode %q", m.mode)
			}
			if m.dest == "" || m.self == "" || m.ring == "" || m.max < 0 {
				t.Fatalf("MIGRATE accepted bad operands %+v", *m)
			}
		default:
			t.Fatalf("parser returned unknown op %d", req.op)
		}
		// A TRACE prefix is accepted only within the codec's ID bounds.
		if req.trace != nil && (len(req.trace) == 0 || len(req.trace) > maxTraceIDLen) {
			t.Fatalf("TRACE accepted id of length %d", len(req.trace))
		}
		// Zero-copy contract: accepted keys, values and trace IDs are byte
		// ranges of the input line, so their content must appear in it
		// verbatim.
		for _, b := range [][]byte{req.key, req.val, req.old, req.trace} {
			if len(b) > 0 && !bytes.Contains(line, b) {
				t.Fatalf("operand %q not present in input line %q", b, line)
			}
		}
	})
}
