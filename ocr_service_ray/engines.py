"""Pluggable OCR engines.

The reference binds to the macOS-only Vision framework
(``/root/reference/core/ocr_engine.py:14-27, 178-293``); Vision is
unavailable off-macOS, so the engine is an interface here (SURVEY.md
§7.4-4). The deterministic :class:`SyntheticOCR` drives the
exact-match conformance tests; real engines (Tesseract per the
reference ``Dockerfile:4-7``, ONNX models) are adapters that produce
the same per-line region shape and feed the same downstream kernels.

Engine contract — ``recognize(payload: bytes) -> dict`` mirroring the
reference's per-image OCR result (``ocr_engine.py:274-282``)::

    {"text": str,            # '\\n'.join of line texts
     "confidence": float,    # mean line confidence, 0.0 if no lines
     "regions": [{"text", "confidence", "x1", "y1", "x2", "y2"}, ...],
     "word_count": int}

Engines are constructed once per actor in the OCR stage's
``__init__`` (``stages/ocr.py``) — never per batch.
"""

from __future__ import annotations

import json


class SyntheticOCR:
    """Deterministic engine for tests and benchmarks.

    The media payload is a self-describing JSON document of line
    spans: ``{"lines": [[text, confidence, x1, y1, x2, y2], ...]}``
    (see ``sources/synth.py``). Recognition is a pure function of the
    payload bytes — no randomness, no global state — which is what
    makes the span-sequence exact-match test meaningful.
    """

    name = "synthetic"

    def recognize(self, payload: bytes) -> dict:
        doc = json.loads(payload.decode("utf-8"))
        lines = doc.get("lines", [])
        regions = [
            {
                "text": t,
                "confidence": float(c),
                "x1": float(x1),
                "y1": float(y1),
                "x2": float(x2),
                "y2": float(y2),
            }
            for t, c, x1, y1, x2, y2 in lines
        ]
        text = "\n".join(r["text"] for r in regions)
        confidence = (
            sum(r["confidence"] for r in regions) / len(regions) if regions else 0.0
        )
        return {
            "text": text,
            "confidence": confidence,
            "regions": regions,
            "word_count": len([w for w in text.split() if w.strip()]),
        }

    def recognize_area(self, payload: bytes, area: dict) -> dict:
        """Area OCR (M3/M17): the analogue of the reference's
        ``extract_text_by_area(high_dpi_image, scaled_area)``
        (``core/processor.py:168-171``) — recognition restricted to
        the lines whose bbox intersects the (already hi-DPI-scaled)
        area rect. Callers scale the rect first with
        ``kernels/geometry.scale_area_for_media``."""
        full = self.recognize(payload)
        x1, y1 = area.get("x1", 0), area.get("y1", 0)
        x2, y2 = area.get("x2", 0), area.get("y2", 0)
        regions = [
            r
            for r in full["regions"]
            if r["x1"] < x2 and r["x2"] > x1 and r["y1"] < y2 and r["y2"] > y1
        ]
        text = "\n".join(r["text"] for r in regions)
        confidence = (
            sum(r["confidence"] for r in regions) / len(regions) if regions else 0.0
        )
        return {
            "text": text,
            "confidence": confidence,
            "regions": regions,
            "word_count": len([w for w in text.split() if w.strip()]),
        }


class TesseractOCR:
    """Adapter for a real Tesseract engine (reference ``Dockerfile:4-7``).

    pytesseract/PIL are not installed in this sandbox; construction
    fails fast so a misconfigured pipeline surfaces in the actor's
    ``__init__`` smoke test rather than mid-run. On a real cluster the
    adapter decodes ``payload`` (PNG/JPEG bytes), runs
    ``image_to_data``, and emits the same region shape as
    :class:`SyntheticOCR`.
    """

    name = "tesseract"

    def __init__(self):
        try:
            import pytesseract  # noqa: F401
            from PIL import Image  # noqa: F401
        except ImportError as e:  # pragma: no cover - env-dependent
            raise NotImplementedError(
                "TesseractOCR requires pytesseract + PIL (not in this sandbox); "
                "use SyntheticOCR for deterministic runs"
            ) from e

    def recognize(self, payload: bytes) -> dict:  # pragma: no cover - env-dependent
        import io

        import pytesseract
        from PIL import Image

        img = Image.open(io.BytesIO(payload))
        data = pytesseract.image_to_data(img, output_type=pytesseract.Output.DICT)
        regions = []
        for text, conf, left, top, width, height in zip(
            data["text"], data["conf"], data["left"], data["top"],
            data["width"], data["height"],
        ):
            if str(text).strip() and float(conf) >= 0:
                regions.append(
                    {
                        "text": text,
                        "confidence": float(conf) / 100.0,
                        "x1": float(left),
                        "y1": float(top),
                        "x2": float(left + width),
                        "y2": float(top + height),
                    }
                )
        text = "\n".join(r["text"] for r in regions)
        confidence = (
            sum(r["confidence"] for r in regions) / len(regions) if regions else 0.0
        )
        return {
            "text": text,
            "confidence": confidence,
            "regions": regions,
            "word_count": len([w for w in text.split() if w.strip()]),
        }


class OnnxOCR:
    """Adapter for an ONNX recognition model (the north-star's second
    named backend). onnxruntime is not installed in this sandbox;
    construction fails fast (actor ``__init__`` smoke-tests the
    pipeline wiring). On a real cluster the adapter loads the
    detector+recognizer sessions ONCE per actor — pass
    ``num_gpus=fraction`` through the fused stage's ``map_batches`` for
    GPU placement — and emits the same region shape as
    :class:`SyntheticOCR` so every downstream kernel is unchanged.
    """

    name = "onnx"

    def __init__(self, model_path: str | None = None, providers: list[str] | None = None):
        try:
            import onnxruntime  # noqa: F401
        except ImportError as e:  # pragma: no cover - env-dependent
            raise NotImplementedError(
                "OnnxOCR requires onnxruntime (not in this sandbox); "
                "use SyntheticOCR for deterministic runs"
            ) from e
        self._session = None  # pragma: no cover
        if model_path:  # pragma: no cover
            import onnxruntime

            self._session = onnxruntime.InferenceSession(
                model_path, providers=providers or ["CPUExecutionProvider"]
            )

    def recognize(self, payload: bytes) -> dict:  # pragma: no cover - env-dependent
        raise NotImplementedError(
            "wire a detector+recognizer graph here; output must match the "
            "SyntheticOCR region contract"
        )


ENGINES = {
    "synthetic": SyntheticOCR,
    "tesseract": TesseractOCR,
    "onnx": OnnxOCR,
}


def make_engine(name: str = "synthetic"):
    return ENGINES[name]()
