//go:build unix

package planck

import (
	"net"
	"syscall"
)

// rawUDPConn returns conn's descriptor-level handle when conn is a UDP
// socket whose queue ServeUDPBatched can drain without blocking, else
// nil.
func rawUDPConn(conn net.PacketConn) syscall.RawConn {
	udp, ok := conn.(*net.UDPConn)
	if !ok {
		return nil
	}
	raw, err := udp.SyscallConn()
	if err != nil {
		return nil
	}
	return raw
}

// recvNonblocking reads one datagram from fd, a socket the net package
// keeps in non-blocking mode: syscall.EAGAIN means none is queued.
func recvNonblocking(fd uintptr, p []byte) (int, error) {
	for {
		n, err := syscall.Read(int(fd), p)
		if err != syscall.EINTR {
			return n, err
		}
	}
}
