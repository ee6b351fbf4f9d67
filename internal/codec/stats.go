package codec

import (
	"sync/atomic"
	"time"

	"dynamast/internal/obs"
)

// Surface identifies which wire boundary an encode/decode served, so the
// codec's cost is attributable per subsystem (the WAL publish path, the RPC
// layer, checkpoint export/restore).
type Surface int

const (
	// SurfaceWAL is update-log append and replay.
	SurfaceWAL Surface = iota
	// SurfaceRPC is the networked request/response layer.
	SurfaceRPC
	// SurfaceCheckpoint is snapshot export and restore.
	SurfaceCheckpoint

	numSurfaces
)

// String names the surface.
func (s Surface) String() string {
	switch s {
	case SurfaceWAL:
		return "wal"
	case SurfaceRPC:
		return "rpc"
	case SurfaceCheckpoint:
		return "checkpoint"
	}
	return "unknown"
}

// surfaceStats is one surface's process-wide counters: the bytes and time
// spent encoding and decoding.
type surfaceStats struct {
	encBytes atomic.Uint64
	encNanos atomic.Uint64
	decBytes atomic.Uint64
	decNanos atomic.Uint64
}

var stats [numSurfaces]surfaceStats

// RecordEncode charges one encode of n bytes taking d to surface s.
func RecordEncode(s Surface, n int, d time.Duration) {
	stats[s].encBytes.Add(uint64(n))
	stats[s].encNanos.Add(uint64(d))
}

// RecordDecode charges one decode of n bytes taking d to surface s.
func RecordDecode(s Surface, n int, d time.Duration) {
	stats[s].decBytes.Add(uint64(n))
	stats[s].decNanos.Add(uint64(d))
}

// Instrument registers the codec's process-wide counters in reg:
// dynamast_codec_{encode,decode}_{bytes,nanos}_total, each labelled by
// surface.
func Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Help("dynamast_codec_encode_bytes_total", "Bytes serialized by the binary codec, by wire surface.")
	reg.Help("dynamast_codec_encode_nanos_total", "Nanoseconds spent serializing, by wire surface.")
	reg.Help("dynamast_codec_decode_bytes_total", "Bytes deserialized by the binary codec, by wire surface.")
	reg.Help("dynamast_codec_decode_nanos_total", "Nanoseconds spent deserializing, by wire surface.")
	for i := Surface(0); i < numSurfaces; i++ {
		s := &stats[i]
		lbl := obs.L("surface", i.String())
		reg.Func("dynamast_codec_encode_bytes_total", obs.KindCounter,
			func() float64 { return float64(s.encBytes.Load()) }, lbl)
		reg.Func("dynamast_codec_encode_nanos_total", obs.KindCounter,
			func() float64 { return float64(s.encNanos.Load()) }, lbl)
		reg.Func("dynamast_codec_decode_bytes_total", obs.KindCounter,
			func() float64 { return float64(s.decBytes.Load()) }, lbl)
		reg.Func("dynamast_codec_decode_nanos_total", obs.KindCounter,
			func() float64 { return float64(s.decNanos.Load()) }, lbl)
	}
}
