package dist

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"cleandb/internal/data"
	"cleandb/internal/types"
)

// exchange.go holds the two engine.Exchange implementations: the
// coordinator's in-process seat at the barrier hub, and the worker's seat,
// which long-polls the coordinator's exchange endpoint over HTTP.

// voteStage reports whether a stage carries column-type votes rather than
// result rows; votes travel as the compact scan-vote frame.
func voteStage(stage string) bool {
	return strings.HasPrefix(stage, "scanvote/")
}

// encodeLocal encodes each computed slot's rows into a wire frame, picking
// the frame type by stage: scan-vote stages get the two-byte-per-column vote
// frame, everything else the general row frame.
func encodeLocal(stage string, local map[int][]types.Value) (map[int][]byte, error) {
	vote := voteStage(stage)
	frames := make(map[int][]byte, len(local))
	for slot, rows := range local {
		if vote {
			votes, err := data.VotesOfRows(rows)
			if err != nil {
				return nil, fmt.Errorf("dist: stage %s slot %d: %w", stage, slot, err)
			}
			frames[slot] = data.EncodeScanVoteFrame(votes)
			continue
		}
		frames[slot] = data.EncodeRowsFrame(rows)
	}
	return frames, nil
}

// decodeFull turns the barrier's full frame vector back into row slices,
// reusing the rows this node computed itself and decoding only the peers'
// frames — into this node's session dictionary, so string codes stay
// consistent with everything else the node has interned.
func decodeFull(stage string, frames [][]byte, local map[int][]types.Value, dict *data.Dict) ([][]types.Value, error) {
	vote := voteStage(stage)
	out := make([][]types.Value, len(frames))
	for i, frame := range frames {
		if rows, ok := local[i]; ok {
			out[i] = rows
			continue
		}
		if vote {
			votes, err := data.DecodeScanVoteFrame(frame)
			if err != nil {
				return nil, fmt.Errorf("dist: exchange slot %d: %w", i, err)
			}
			out[i] = data.VoteRows(votes)
			continue
		}
		rows, err := data.DecodeRowsFrame(frame, dict)
		if err != nil {
			return nil, fmt.Errorf("dist: exchange slot %d: %w", i, err)
		}
		out[i] = rows
	}
	return out, nil
}

// localExchange is the coordinator's seat at the barrier of one session.
type localExchange struct {
	s    *hubSession
	ctx  context.Context // the coordinator's own query context
	dict *data.Dict
	// execSlots counts the masked join slots this node actually executed —
	// placement share plus reassigned extras. It is the real (not simulated)
	// measure of how the join work divided across the cluster. Custody scan
	// stages are excluded: chunk counts are tracked as owned partitions.
	execSlots atomic.Int64
	// custodyRescans counts scan chunks this node adopted from a dead peer
	// and re-parsed — the recovery cost of partitioned custody.
	custodyRescans atomic.Int64
}

func newLocalExchange(s *hubSession, ctx context.Context) *localExchange {
	return &localExchange{s: s, ctx: ctx, dict: data.NewDict()}
}

func (x *localExchange) Mask(stage string, n int) []int {
	return stageSlots(stage, n, x.s.members[0], x.s.members)
}

func (x *localExchange) Gather(stage string, n int, local map[int][]types.Value) ([][]types.Value, []int, error) {
	_, scan := scanSource(stage)
	if !scan {
		x.execSlots.Add(int64(len(local)))
	}
	frames, err := encodeLocal(stage, local)
	if err != nil {
		return nil, nil, err
	}
	full, extra, err := x.s.gather(x.ctx, x.s.members[0], stage, n, frames)
	if err != nil || len(extra) > 0 {
		if scan && len(extra) > 0 {
			x.custodyRescans.Add(int64(len(extra)))
		}
		return nil, extra, err
	}
	rows, err := decodeFull(stage, full, local, x.dict)
	return rows, nil, err
}

// remoteExchange is a worker's seat: every gather is a long-poll POST of the
// worker's slot frames to the coordinator, answered once the stage resolves.
type remoteExchange struct {
	client  *http.Client
	url     string // coordinator exchange endpoint
	session string
	self    string
	members []string
	ctx     context.Context // the fragment request's context
	dict    *data.Dict
	// execSlots mirrors localExchange's counter for this worker's share.
	execSlots atomic.Int64
	// custodyRescans mirrors localExchange's adopted-chunk counter.
	custodyRescans atomic.Int64
}

func (x *remoteExchange) Mask(stage string, n int) []int {
	return stageSlots(stage, n, x.self, x.members)
}

func (x *remoteExchange) Gather(stage string, n int, local map[int][]types.Value) ([][]types.Value, []int, error) {
	_, scan := scanSource(stage)
	if !scan {
		x.execSlots.Add(int64(len(local)))
	}
	frames, err := encodeLocal(stage, local)
	if err != nil {
		return nil, nil, err
	}
	body, err := encodeExchangeRequest(
		exchangeHeader{Session: x.session, Self: x.self, Stage: stage, N: n},
		frames)
	if err != nil {
		return nil, nil, err
	}
	reply, err := x.post(body)
	if err != nil {
		return nil, nil, err
	}
	rep, full, err := decodeExchangeReply(reply)
	if err != nil {
		return nil, nil, err
	}
	switch rep.Status {
	case "extra":
		if scan {
			x.custodyRescans.Add(int64(len(rep.Extra)))
		}
		return nil, rep.Extra, nil
	case "full":
		if len(full) != n {
			return nil, nil, fmt.Errorf("dist: exchange reply carries %d frames, want %d", len(full), n)
		}
		rows, err := decodeFull(stage, full, local, x.dict)
		return rows, nil, err
	default:
		return nil, nil, fmt.Errorf("dist: exchange reply status %q", rep.Status)
	}
}

// post sends one gather long-poll, retrying once on a transport error. Any
// HTTP response — success or error status — is authoritative (the barrier is
// idempotent for resubmitted frames, so a retried submit is safe); only a
// dropped connection warrants the second attempt.
func (x *remoteExchange) post(body []byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if err := x.ctx.Err(); err != nil {
			return nil, err
		}
		req, err := http.NewRequestWithContext(x.ctx, http.MethodPost, x.url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := x.client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		reply, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("dist: exchange rejected: %s: %s", resp.Status, strings.TrimSpace(string(reply)))
		}
		return reply, nil
	}
	return nil, fmt.Errorf("dist: exchange transport failed after retry: %w", lastErr)
}
