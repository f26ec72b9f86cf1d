"""Shared test helper for calling a fusion function on a single image."""


def one_image(fn, per_model, params):
    """`fn`'s output for one image, where `per_model` holds each model's boxes on it."""
    [out] = fn([[boxes] for boxes in per_model], params)
    return out
