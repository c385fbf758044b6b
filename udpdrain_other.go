//go:build !unix

package planck

import (
	"net"
	"syscall"
)

// rawUDPConn reports no drainable socket: this platform has no
// non-blocking read through syscall.RawConn, so ServeUDPBatched reads
// one datagram per cycle.
func rawUDPConn(net.PacketConn) syscall.RawConn { return nil }

func recvNonblocking(uintptr, []byte) (int, error) { return 0, syscall.EAGAIN }
