package main

import (
	"bufio"
	"encoding/binary"
	"os"
	"path/filepath"
)

// Spans are recorded by the benchmark around its own calls into each
// layer's public functions, kept in memory, and written out when the run
// ends. A span's op is the index, in the connection's op stream, of the
// first operation it covers; spans of the same operation on different
// rungs of the ladder share it, so a layer's self time is the difference
// between adjacent rungs for the same ops.

type spanName uint8

const (
	spanClientBatch   spanName = iota + 1 // one pipelined batch: encode + flush
	spanClientEncode                      // one Conn.Queue* call
	spanClientFlush                       // one Conn.Flush call
	spanCacheGet                          // one server.Cache GetBytesTraced call
	spanCacheSet                          // one server.Cache Set call
	spanGenericGet                        // one generic.GetBytes call
	spanGenericUpsert                     // one generic.Table Upsert call
	spanCoreLookup                        // one cuckoohash.Map Lookup call
)

type span struct {
	name       spanName
	conn       uint8
	parent     int32 // index of the parent span in the same slice; -1 = root
	n          int32 // operations covered
	op         int64
	start, end int64 // nanotime
}

func (s span) dur() int64 { return s.end - s.start }

// selfTimes returns each span's duration minus the part of it that its
// children cover. Children of one parent must not overlap, which holds
// for calls made one after another on one goroutine.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// meanDuration is the mean duration of the spans called name.
func meanDuration(spans []span, name spanName) float64 {
	var sum, n int64
	for _, s := range spans {
		if s.name == name {
			sum += s.dur()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// opKey identifies one operation of one connection's stream.
type opKey struct {
	conn uint8
	op   int64
}

// rungSelfNs is the self time per op of the upper rung: for every upper
// span, its duration minus the durations of the lower rung's spans for
// the same operations, summed and divided by the operations covered.
// Upper spans whose operations the lower rung did not replay are skipped.
func rungSelfNs(upper []span, upperName spanName, lower []span, lowerNames ...spanName) float64 {
	lowerDur := map[opKey]int64{}
	for _, s := range lower {
		for _, name := range lowerNames {
			if s.name == name {
				lowerDur[opKey{s.conn, s.op}] += s.dur()
			}
		}
	}
	var self, ops int64
outer:
	for _, s := range upper {
		if s.name != upperName {
			continue
		}
		var below int64
		for i := int64(0); i < int64(s.n); i++ {
			d, ok := lowerDur[opKey{s.conn, s.op + i}]
			if !ok {
				continue outer
			}
			below += d
		}
		self += s.dur() - below
		ops += int64(s.n)
	}
	if ops == 0 {
		return 0
	}
	return float64(self) / float64(ops)
}

// writeSpans writes spans as fixed-size little-endian records
// (name u8, conn u8, parent i32, n i32, op i64, start i64, end i64).
// They go to dir/<workload>.spans; an empty dir writes nothing.
func writeSpans(dir, workload string, spans []span) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	var rec [34]byte
	for _, s := range spans {
		rec[0], rec[1] = byte(s.name), s.conn
		binary.LittleEndian.PutUint32(rec[2:], uint32(s.parent))
		binary.LittleEndian.PutUint32(rec[6:], uint32(s.n))
		binary.LittleEndian.PutUint64(rec[10:], uint64(s.op))
		binary.LittleEndian.PutUint64(rec[18:], uint64(s.start))
		binary.LittleEndian.PutUint64(rec[26:], uint64(s.end))
		w.Write(rec[:])
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
