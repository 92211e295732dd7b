"""Scalar / per-record utility functions (SURVEY.md §2.2 M11-M18, §2.8).

Each mirrors a reference behavior (citation inline); all are pure and
deterministic so they can run inside any batch stage. Vectorized variants
are provided where a pyarrow kernel exists.
"""

from __future__ import annotations

import base64
import hashlib
import json
import re

import pyarrow as pa
import pyarrow.compute as pc

# ---------------------------------------------------------------------------
# M11 — AI input truncation (AiSummarizationService.java:165-171)
# ---------------------------------------------------------------------------

def truncate_text(text: str | None, max_len: int) -> str | None:
    if text is None:
        return None
    return text[:max_len]


# ---------------------------------------------------------------------------
# M12 — LLM JSON response parser (AiClassificationService.java:152-186)
# ---------------------------------------------------------------------------

_FENCE_RE = re.compile(r"^```(?:json)?\s*|\s*```$", re.MULTILINE)

# Parse-FAILURE defaults (confidence 0.0 is reserved for the failure path;
# a successfully parsed object with a *missing* confidence key defaults to
# 0.5 — AiClassificationService.parseClassificationResponse semantics).
LLM_DEFAULTS = {"document_type": "other", "tags": ["unclassified"], "confidence": 0.0}

MISSING_CONFIDENCE = 0.5


def parse_llm_json(raw: str | None) -> dict:
    """Strip ``` fences, parse JSON; reference defaults on any failure."""
    if not raw:
        return dict(LLM_DEFAULTS)
    cleaned = _FENCE_RE.sub("", raw.strip()).strip()
    try:
        obj = json.loads(cleaned)
        if not isinstance(obj, dict):
            return dict(LLM_DEFAULTS)
        doc_type = obj.get("document_type") or LLM_DEFAULTS["document_type"]
        tags = obj.get("tags")
        if isinstance(tags, str):
            tags = [t.strip() for t in tags.split(",") if t.strip()]
        if not isinstance(tags, list) or not tags:
            tags = list(LLM_DEFAULTS["tags"])
        raw_conf = obj.get("confidence")
        confidence = MISSING_CONFIDENCE if raw_conf is None else float(raw_conf)
    except (json.JSONDecodeError, ValueError, TypeError):
        return dict(LLM_DEFAULTS)
    return {
        "document_type": str(doc_type),
        "tags": [str(t) for t in tags],
        "confidence": confidence,
    }


# ---------------------------------------------------------------------------
# M13 — log sanitizer (SanitizeLogging.java:7-15)
# ---------------------------------------------------------------------------

_LOG_BAD = re.compile(r"[^a-zA-Z0-9_\-.]+")


def sanitize_log(value: str | None) -> str:
    """Replace disallowed runs with single '_', trim edge underscores.

    None input returns the literal 'null' — SanitizeLogging.java renders
    null values as the string "null" in log lines.
    """
    if value is None:
        return "null"
    return _LOG_BAD.sub("_", value).strip("_")


def sanitize_log_column(col: pa.Array) -> pa.Array:
    out = pc.replace_substring_regex(col, pattern=r"[^a-zA-Z0-9_\-.]+", replacement="_")
    return pc.replace_substring_regex(out, pattern=r"^_+|_+$", replacement="")


# ---------------------------------------------------------------------------
# M14 — tag-string splitter (GetOcrDataImpl.java:66-71)
# ---------------------------------------------------------------------------

def split_tags(tags: str | None) -> list[str]:
    """Split on ',', trim, drop empties."""
    if not tags or not tags.strip():
        return []
    return [t.strip() for t in tags.split(",") if t.strip()]


# ---------------------------------------------------------------------------
# M16 — storage key derivation (AwsS3Service.java:54-60) — deterministic
# ---------------------------------------------------------------------------

def storage_key(folder: str, file_name: str, doc_id: str) -> str:
    """``folder/<hash>-<sanitized-base>.<ext>``.

    The reference uses a random UUID; workflow code must be deterministic
    (FIXTURES.md), so the unique part is a hash of (doc_id, file_name).
    """
    if "." in file_name:
        base, ext = file_name.rsplit(".", 1)
    else:
        base, ext = file_name, "bin"
    uid = hashlib.blake2b(f"{doc_id}:{file_name}".encode(), digest_size=16).hexdigest()
    safe = re.sub(r"[^a-zA-Z0-9]", "_", base)
    return f"{folder}/{uid}-{safe}.{ext}"


# ---------------------------------------------------------------------------
# M17 — export filename rewriter (DownloadOcrServiceImpl.java:74-76)
# ---------------------------------------------------------------------------

def docx_filename(original: str) -> str:
    dot = original.rfind(".")
    stem = original[:dot] if dot >= 0 else original
    return stem + ".docx"


# ---------------------------------------------------------------------------
# M18 — AES-256-GCM blob encryption (AesEncryptionServiceImpl.java:53-94)
# ---------------------------------------------------------------------------

def aes_gcm_encrypt(plaintext: bytes, key: bytes, iv: bytes) -> tuple[bytes, str]:
    """Encrypt; returns (ciphertext+tag, base64 IV) — the FileEntry layout
    (encryptionIv stored base64, FileEntry.java:46-51). IV must be supplied
    (12 bytes) so pipelines stay deterministic; derive per-doc, never reuse
    a (key, iv) pair across plaintexts."""
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    ct = AESGCM(key).encrypt(iv, plaintext, None)
    return ct, base64.b64encode(iv).decode()


def aes_gcm_decrypt(ciphertext: bytes, key: bytes, iv_b64: str) -> bytes:
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    return AESGCM(key).decrypt(base64.b64decode(iv_b64), ciphertext, None)


def derive_iv(doc_id: str) -> bytes:
    """Deterministic 96-bit IV from doc identity (unique per doc)."""
    return hashlib.blake2b(f"iv:{doc_id}".encode(), digest_size=12).digest()


# ---------------------------------------------------------------------------
# M6 — PDF sniffing (TesseractOcrProvider.java:148-158)
# ---------------------------------------------------------------------------

def is_pdf(mime_type: str | None, url: str | None) -> bool:
    """MIME equals application/pdf OR url path (query-stripped) ends .pdf."""
    if mime_type and mime_type.lower() == "application/pdf":
        return True
    if url:
        path = url.split("?", 1)[0]
        return path.lower().endswith(".pdf")
    return False


def is_pdf_column(mime: pa.Array, url: pa.Array) -> pa.Array:
    mime_ok = pc.equal(pc.utf8_lower(pc.fill_null(mime, "")), "application/pdf")
    path = pc.replace_substring_regex(pc.fill_null(url, ""), pattern=r"\?.*$", replacement="")
    url_ok = pc.ends_with(pc.utf8_lower(path), ".pdf")
    return pc.or_(mime_ok, url_ok)
