//go:build linux

//fdlint:file-ignore clockuse the generator stamps each datagram with its real write instant and the sink reads kernel receive stamps

package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"syscall"
	"unsafe"

	"wanfd/internal/neko"
	"wanfd/internal/transport"
)

// runGenerator is the generator process: it sends the plan open-loop from
// one socket, claiming each peer's source address with IP_PKTINFO.
func runGenerator(cfg genConfig, in io.Reader, out io.Writer) error {
	clk := newWallClock()
	src, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: cfg.Port})
	if err != nil {
		return fmt.Errorf("generator socket: %w", err)
	}
	defer src.Close()
	dst, err := netip.ParseAddrPort(cfg.Target)
	if err != nil {
		return err
	}
	var sk *sink
	if cfg.SinkPort != 0 {
		if sk, err = openSink(cfg.SinkPort, cfg.T0, cfg.T0+int64(cfg.Dur)); err != nil {
			return err
		}
		defer sk.close()
	}
	w := bufio.NewWriter(out)
	fmt.Fprintln(w, "ready")
	if err := w.Flush(); err != nil {
		return err
	}

	p := newPlan(cfg.Peers, cfg.Eta, cfg.ProbeEvery, cfg.Seed)
	end := cfg.T0 + int64(cfg.Dur)
	recs := make([]sendRec, 0, int(p.cycles(cfg.Dur))*cfg.Peers)
	oob := make([]byte, syscall.CmsgSpace(syscall.SizeofInet4Pktinfo))
	hdr := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
	hdr.Level = syscall.IPPROTO_IP
	hdr.Type = syscall.IP_PKTINFO
	hdr.SetLen(syscall.CmsgLen(syscall.SizeofInet4Pktinfo))
	info := (*syscall.Inet4Pktinfo)(unsafe.Pointer(&oob[syscall.CmsgLen(0)]))
	msg := &neko.Message{Type: neko.MsgHeartbeat, From: 1, To: 1000}
	buf := make([]byte, 0, 64)
	sendErrs := 0

	clk.sleepUntil(cfg.T0)
	cpu0 := cpuSeconds()
	for k := int64(0); ; k++ {
		if p.due(cfg.T0, p.order[0], k) >= end {
			break
		}
		for _, i := range p.order {
			if !p.sends(i, k) {
				continue
			}
			due := p.due(cfg.T0, i, k)
			if due >= end {
				continue
			}
			if d := due - clk.now(); d > 0 {
				// A nanosleep on this goroutine's own thread wakes within
				// tens of microseconds; the runtime's timers only within
				// about a millisecond, which would smear the phase grid.
				ts := syscall.NsecToTimespec(d)
				_ = syscall.Nanosleep(&ts, nil)
			}
			info.Spec_dst = peerIP(i)
			msg.Seq = k
			wr := clk.now()
			pkt, err := transport.Encode(buf, msg, wr)
			if err != nil {
				return err
			}
			if _, _, err := src.WriteMsgUDPAddrPort(pkt, oob, dst); err != nil {
				sendErrs++
				continue
			}
			recs = append(recs, sendRec{peer: uint32(i), cycle: uint32(k), due: due, write: wr})
		}
	}
	cpu := cpuSeconds() - cpu0

	// The harness closes stdin once the node heartbeater has stopped, so
	// the sink has seen everything it will ever receive.
	_, _ = io.Copy(io.Discard, in)
	sum := genSummary{Sends: len(recs), CPUSec: cpu, SendErrs: sendErrs}
	late := make([]int64, len(recs))
	for j, r := range recs {
		late[j] = r.write - r.due
	}
	d := summarize(late)
	sum.LateP50, sum.LateP99 = d.p50, d.p99
	for _, l := range late {
		if l > sum.LateMax {
			sum.LateMax = l
		}
	}
	if sk != nil {
		sk.close()
		sd := summarize(sk.late)
		sum.SinkRecv, sum.SinkLateN, sum.SinkLateP50, sum.SinkLateP99 = sk.recv, sd.n, sd.p50, sd.p99
		sum.SinkRemotes = len(sk.remotes)
		sum.SinkDrops = udpDrops(uint16(cfg.SinkPort))
	}
	if err := json.NewEncoder(w).Encode(sum); err != nil {
		return err
	}
	var rb [sendRecSize]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint32(rb[0:], r.peer)
		binary.LittleEndian.PutUint32(rb[4:], r.cycle)
		binary.LittleEndian.PutUint64(rb[8:], uint64(r.due))
		binary.LittleEndian.PutUint64(rb[16:], uint64(r.write))
		if _, err := w.Write(rb[:]); err != nil {
			return err
		}
	}
	return w.Flush()
}

// sink receives the node heartbeater's datagrams on every 127.100.x.y
// destination and records kernel-receive lateness against the η-grid
// instant each one carries.
type sink struct {
	conn     *net.UDPConn
	from, to int64
	wg       sync.WaitGroup
	recv     int
	late     []int64
	remotes  map[int32]bool
}

func openSink(port int, from, to int64) (*sink, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4zero, Port: port})
	if err != nil {
		return nil, fmt.Errorf("sink socket: %w", err)
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		conn.Close()
		return nil, err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_TIMESTAMPNS, 1)
		if serr == nil {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 4<<20)
		}
	}); err != nil || serr != nil {
		conn.Close()
		return nil, fmt.Errorf("sink socket options: %v %v", err, serr)
	}
	s := &sink{conn: conn, from: from, to: to, remotes: make(map[int32]bool)}
	s.wg.Add(1)
	go s.loop()
	return s, nil
}

func (s *sink) loop() {
	defer s.wg.Done()
	buf := make([]byte, 2048)
	oob := make([]byte, 128)
	m := &neko.Message{}
	for {
		n, oobn, _, _, err := s.conn.ReadMsgUDPAddrPort(buf, oob)
		if err != nil {
			return
		}
		sent, err := transport.DecodeInto(m, buf[:n])
		if err != nil {
			continue
		}
		s.recv++
		s.remotes[int32(m.To)] = true
		if sent < s.from || sent >= s.to {
			continue
		}
		if ts, ok := kernelStamp(oob[:oobn]); ok {
			s.late = append(s.late, ts-sent)
		}
	}
}

func (s *sink) close() {
	s.conn.Close()
	s.wg.Wait()
}

// kernelStamp extracts the SCM_TIMESTAMPNS receive instant (Unix ns).
func kernelStamp(oob []byte) (int64, bool) {
	for len(oob) >= syscall.CmsgLen(0) {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
		l := int(h.Len)
		if l < syscall.CmsgLen(0) || l > len(oob) {
			return 0, false
		}
		if h.Level == syscall.SOL_SOCKET && h.Type == syscall.SCM_TIMESTAMPNS &&
			l >= syscall.CmsgLen(int(unsafe.Sizeof(syscall.Timespec{}))) {
			ts := (*syscall.Timespec)(unsafe.Pointer(&oob[syscall.CmsgLen(0)]))
			return ts.Nano(), true
		}
		oob = oob[syscall.CmsgSpace(l-syscall.CmsgLen(0)):]
	}
	return 0, false
}
