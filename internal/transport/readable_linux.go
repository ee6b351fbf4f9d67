package transport

import (
	"net"
	"syscall"
)

// readable reports whether conn has bytes waiting to be read, or has been
// closed at either end, without consuming anything: a non-blocking peek at
// one byte. A connection it cannot inspect counts as readable.
func readable(conn net.Conn) bool {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return true
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return true
	}
	ready := true
	var b [1]byte
	if err := rc.Control(func(fd uintptr) {
		_, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		ready = err != syscall.EAGAIN
	}); err != nil {
		return true
	}
	return ready
}
