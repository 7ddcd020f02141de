package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// genConfig is the generator's command line, written by the harness.
type genConfig struct {
	Peers      int           `json:"peers"`
	Eta        time.Duration `json:"eta"`
	ProbeEvery int           `json:"probe_every"`
	Seed       int64         `json:"seed"`
	T0         int64         `json:"t0"`
	Dur        time.Duration `json:"dur"`
	Port       int           `json:"port"`
	Target     string        `json:"target"`
	// SinkPort, when non-zero, opens the sink socket that receives the
	// node heartbeater's datagrams.
	SinkPort int `json:"sink_port"`
}

// genSummary is the generator's report, the first line of its output
// after the harness closes its stdin. Send records follow it.
type genSummary struct {
	Sends    int     `json:"sends"`
	LateP50  int64   `json:"late_p50_ns"`
	LateP99  int64   `json:"late_p99_ns"`
	LateMax  int64   `json:"late_max_ns"`
	CPUSec   float64 `json:"cpu_s"`
	SendErrs int     `json:"send_errors"`
	// Sink figures: every datagram received, those whose η-grid instant
	// lies in the window, and their kernel-receive lateness.
	SinkRecv    int   `json:"sink_recv"`
	SinkLateN   int   `json:"sink_late_n"`
	SinkLateP50 int64 `json:"sink_late_p50_ns"`
	SinkLateP99 int64 `json:"sink_late_p99_ns"`
	SinkDrops   int64 `json:"sink_drops"`
	SinkRemotes int   `json:"sink_remotes"`
}

// sendRec is one heartbeat the generator wrote.
type sendRec struct {
	peer  uint32
	cycle uint32
	due   int64
	write int64
}

const sendRecSize = 24

// readGenerator parses the generator's report and send records.
func readGenerator(r *bufio.Reader) (genSummary, []sendRec, error) {
	var sum genSummary
	line, err := r.ReadBytes('\n')
	if err != nil {
		return sum, nil, fmt.Errorf("generator summary: %w", err)
	}
	if err := json.Unmarshal(line, &sum); err != nil {
		return sum, nil, fmt.Errorf("generator summary: %w", err)
	}
	recs := make([]sendRec, sum.Sends)
	var rb [sendRecSize]byte
	for j := range recs {
		if _, err := io.ReadFull(r, rb[:]); err != nil {
			return sum, nil, fmt.Errorf("generator records: %w", err)
		}
		recs[j] = sendRec{
			peer:  binary.LittleEndian.Uint32(rb[0:]),
			cycle: binary.LittleEndian.Uint32(rb[4:]),
			due:   int64(binary.LittleEndian.Uint64(rb[8:])),
			write: int64(binary.LittleEndian.Uint64(rb[16:])),
		}
	}
	return sum, recs, nil
}
