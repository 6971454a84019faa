"""Policy translation: the paper's core contribution mechanics.

- :mod:`repro.translate.to_keynote` — encode RBAC relations as KeyNote
  credentials (Figures 5 and 6): Policy Configuration's source format.
- :mod:`repro.translate.from_keynote` — comprehend KeyNote credentials back
  into RBAC relations (Section 4.2) via condition normalisation.
- :mod:`repro.translate.to_spki` — the SPKI/SDSI alternative encoding
  (footnote 1).
- :mod:`repro.translate.migrate` — middleware-to-middleware migration
  (Section 4.3) through the common format, with similarity-based vocabulary
  mapping ([13]).
- :mod:`repro.translate.similarity` — the similarity metrics.
- :mod:`repro.translate.consistency` — global consistency checking
  (Section 4.4's invariant).
- :mod:`repro.translate.propagate` — maintenance propagation of policy
  deltas across every registered system.
"""

from repro._lazy import lazy_facade

#: public name -> the submodule defining it, imported on first read
_EXPORTS = {
    "ATTR_DOMAIN": "common",
    "ATTR_OBJECT_TYPE": "common",
    "ATTR_PERMISSION": "common",
    "ATTR_ROLE": "common",
    "ConsistencyReport": "consistency",
    "DomainMapping": "migrate",
    "ImpreciseChecker": "imprecise",
    "ImpreciseResult": "imprecise",
    "PropagationEngine": "propagate",
    "WEBCOM_APP_DOMAIN": "common",
    "best_match": "similarity",
    "check_consistency": "consistency",
    "comprehend_credentials": "from_keynote",
    "comprehend_policy": "from_keynote",
    "encode_policy": "to_keynote",
    "encode_user_credentials": "to_keynote",
    "jaccard": "similarity",
    "levenshtein": "similarity",
    "migrate_policy": "migrate",
    "name_similarity": "similarity",
    "overlap": "similarity",
    "spki_grant_tag": "to_spki",
    "spki_policy_certificates": "to_spki",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_facade(__name__, _EXPORTS)
