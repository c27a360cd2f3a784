// The serving layer's stable error taxonomy. Every query failure maps to
// one of five machine-readable codes so clients can implement retry
// policies against the CODE, never against error strings (which are free
// to change between versions):
//
//	overloaded — the admission gate shed the query, or the server is
//	             draining. Retryable: honour the Retry-After hint.
//	deadline   — the query's deadline expired (client-supplied or the
//	             server clamp). Retryable with a longer timeout.
//	cancelled  — the client went away mid-query (connection closed).
//	parse      — the statement failed to parse, bind, or evaluate; the
//	             request is at fault. NOT retryable as-is.
//	internal   — a panic isolated into *sql.QueryError (a run never
//	             writes its plan, so a retry is safe and runs exactly
//	             as a fresh Prepare would), or a column the table could
//	             not load (engine.ErrColumnLoad: a tile changed or
//	             vanished since the load).
package server

import (
	"context"
	"errors"
	"net/http"

	"gisnav/internal/engine"
	"gisnav/internal/sql"
)

// The stable error codes. These strings are API: clients switch on them.
const (
	CodeOverloaded = "overloaded"
	CodeDeadline   = "deadline"
	CodeCancelled  = "cancelled"
	CodeParse      = "parse"
	CodeInternal   = "internal"
)

// StatusClientClosed mirrors nginx's non-standard 499 "client closed
// request": the query was cancelled by the client side, so no standard 4xx
// or 5xx fits (the server did nothing wrong, and the client is gone).
const StatusClientClosed = 499

// Code classifies an error from the query lifecycle into its stable code.
// The order matters: a *sql.QueryError may wrap a context error via its
// panic value, but a recovered panic is an internal failure first.
func Code(err error) string {
	var qe *sql.QueryError
	switch {
	case errors.As(err, &qe), errors.Is(err, engine.ErrColumnLoad):
		return CodeInternal
	case errors.Is(err, sql.ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, context.DeadlineExceeded):
		return CodeDeadline
	case errors.Is(err, context.Canceled):
		return CodeCancelled
	default:
		// Everything else the SQL layer surfaces — lexer, parser, binder,
		// evaluator — is a statement problem: the request is malformed.
		return CodeParse
	}
}

// HTTPStatus maps a stable error code to its HTTP status.
func HTTPStatus(code string) int {
	switch code {
	case CodeOverloaded:
		return http.StatusServiceUnavailable
	case CodeDeadline:
		return http.StatusGatewayTimeout
	case CodeCancelled:
		return StatusClientClosed
	case CodeParse:
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}
