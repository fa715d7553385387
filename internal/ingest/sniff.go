package ingest

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"io"
)

// Content sniffing shared by the loaders (internal/traceio and
// internal/store both need it; keeping it here avoids an import cycle
// between them).

// Sniff prepares r for format detection: a gzip stream is decompressed
// transparently, and head holds the first 4 KiB of the (decompressed)
// content, fewer when the input is shorter. The returned reader yields
// the whole content, head included; head is valid until it is read.
func Sniff(r io.Reader) (*bufio.Reader, []byte, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	if head, err := br.Peek(2); err == nil && IsGzip(head) {
		// The gzip reader holds no resource of its own, so it needs no
		// Close; its checksum is verified when the stream hits EOF.
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, nil, err
		}
		br = bufio.NewReaderSize(gz, 64<<10)
	}
	head, err := br.Peek(4096)
	if err != nil && err != io.EOF {
		return nil, nil, err
	}
	return br, head, nil
}

// gzipMagic is the two-byte header every gzip stream starts with.
var gzipMagic = []byte{0x1f, 0x8b}

// IsGzip reports whether head starts a gzip stream.
func IsGzip(head []byte) bool {
	return len(head) >= 2 && bytes.Equal(head[:2], gzipMagic)
}

// IsPaje reports whether the first non-blank, non-comment line of the
// peeked head starts a Paje header ('%'). It works on raw bytes so
// sniffing allocates nothing.
func IsPaje(head []byte) bool {
	for len(head) > 0 {
		var line []byte
		if nl := bytes.IndexByte(head, '\n'); nl >= 0 {
			line, head = head[:nl], head[nl+1:]
		} else {
			line, head = head, nil
		}
		t := bytes.TrimSpace(line)
		if len(t) == 0 || t[0] == '#' {
			continue
		}
		return t[0] == '%'
	}
	return false
}
