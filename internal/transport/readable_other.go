//go:build !linux

package transport

import "net"

// readable reports whether conn may have bytes waiting to be read. Without
// a way to peek at the socket it always says yes.
func readable(net.Conn) bool { return true }
