"""Exception hierarchy shared by all skyrelay components.

Every error that can cross the wire carries a stable ``code`` string so a
peer can rebuild the typed exception from an ERROR message body.
"""

from __future__ import annotations


class SkyrelayError(Exception):
    """Base class; ``code`` is the stable wire identifier."""

    code = "INTERNAL"

    def body(self) -> dict:
        return {"code": self.code, "message": str(self)}


# --- domain / FOI compiler ---

class UnknownOperation(SkyrelayError):
    code = "UNKNOWN_OPERATION"


class NotCloudAssisted(SkyrelayError):
    code = "NOT_CLOUD_ASSISTED"


# --- keying ---

class InvalidOffset(SkyrelayError):
    code = "INVALID_OFFSET"


class CredentialAuthFailure(SkyrelayError):
    code = "CREDENTIAL_AUTH_FAILURE"


# --- storage ---

class AuthError(SkyrelayError):
    code = "AUTH_ERROR"


class PermissionDenied(SkyrelayError, PermissionError):
    # doubles as the builtin so callers can catch PermissionError
    code = "PERMISSION_DENIED"


class NotFound(SkyrelayError):
    code = "NOT_FOUND"


class AlreadyExists(SkyrelayError):
    code = "ALREADY_EXISTS"


class QuotaError(SkyrelayError):
    code = "QUOTA_ERROR"


# --- wire protocol ---

class FrameError(SkyrelayError):
    code = "FRAME_ERROR"


class DecodeError(SkyrelayError):
    code = "DECODE_ERROR"


class ConnectError(SkyrelayError):
    code = "CONNECT_ERROR"


class ChannelClosed(SkyrelayError):
    code = "CHANNEL_CLOSED"


class RequestTimeout(SkyrelayError):
    code = "TIMEOUT"


class CertificateError(SkyrelayError):
    code = "CERTIFICATE_ERROR"


# --- coordinator ---

class AlreadyRegistered(SkyrelayError):
    code = "ALREADY_REGISTERED"


class RegistrationError(SkyrelayError):
    code = "REGISTRATION_ERROR"


class NoInstanceAvailable(SkyrelayError):
    code = "NO_INSTANCE_AVAILABLE"


class VerificationFailed(SkyrelayError):
    code = "VERIFICATION_FAILED"


# --- worker ---

class StartError(SkyrelayError):
    code = "START_ERROR"


class TransformError(SkyrelayError):
    code = "TRANSFORM_ERROR"


class ConfigError(SkyrelayError):
    code = "CONFIG_ERROR"


class Gone(SkyrelayError):
    code = "GONE"


class ShutdownError(SkyrelayError):
    """Job aborted because the worker hit its billing deadline."""

    code = "SHUTDOWN"


# --- scheduler ---

class Infeasible(SkyrelayError):
    code = "INFEASIBLE"

    def __init__(self, message: str, task_ids: list[str] | None = None):
        super().__init__(message)
        self.task_ids = task_ids or []


class OracleTooLarge(SkyrelayError):
    code = "ORACLE_TOO_LARGE"


_BY_CODE = {
    cls.code: cls
    for cls in list(globals().values())
    if isinstance(cls, type) and issubclass(cls, SkyrelayError)
}


class RemoteError(SkyrelayError):
    """ERROR body whose code maps to no local exception class."""

    code = "REMOTE"


def error_body(e: BaseException) -> dict:
    """The ERROR body that reports e: its own for a SkyrelayError, else INTERNAL."""
    if isinstance(e, SkyrelayError):
        return e.body()
    return {"code": "INTERNAL", "message": str(e)}


def error_from_body(body: dict) -> SkyrelayError:
    """Rebuild a typed exception from an ERROR message body."""
    code = body.get("code", "REMOTE")
    err = _BY_CODE.get(code, RemoteError)(body.get("message", ""))
    err.code = code
    if "step" in body:
        err.step = body["step"]  # type: ignore[attr-defined]
    return err
