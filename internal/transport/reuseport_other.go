//go:build !linux

package transport

import "net"

// listenUDP opens a UDP socket. SO_REUSEPORT is unavailable here, so
// readers are clamped to one and no second socket ever binds the address.
func listenUDP(addr string) (*net.UDPConn, error) {
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	return net.ListenUDP("udp", laddr)
}

// maxReaders clamps the drain-loop count to one without SO_REUSEPORT.
func maxReaders(int) int { return 1 }
